"""A fixed matrix of CLI commands and the expected bytes of what it writes.

The expected files live in tests/data/pinned/: every CSV and manifest as it
is, except the manifest lines that name the output directory or the trace
path, and the trace file as a SHA-256 in HEADER. Values print at 17
significant digits, so the bytes belong to a numpy and BLAS build; HEADER
records the one that made them.

Regenerate the data (a change to a check: say so in CHANGES.md) with

    PYTHONPATH=src python tests/pinned_outputs.py

It first prints one line per file it adds, removes or changes against the
committed data (the trace under its own name), so an intended byte change
can name each file it touches. A changed CSV's line also names each column
that changed and the largest relative change in it, and a changed
manifest's line each key added, removed or changed, section by section, for
example

    changed run-3-random-grouping-cas.steps.csv: rel_err max rel 8.9e-16
    changed eps0.manifest.ini: removed skipper.warmup_fulls, removed output.c_cache
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import io
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from worldcache.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data" / "pinned"
HEADER = "HEADER"
TRACE = "trace.wct"
REGENERATE = "PYTHONPATH=src python tests/pinned_outputs.py"

PREDICTORS = ("chtp", "uniform-reuse", "uniform-linear", "uniform-damped", "random-grouping")
SKIPPERS = ("cas", "fixed-interval", "input-guided")
_RUN = ("--steps", "30", "--rng-seed", "7")
_TRACE_WORKLOAD = ("--preset", "turnpoint", "--n-tokens", "32", "--dims", "4", "--steps", "30")
# Manifest lines that name where this matrix ran, not what it computed.
_PLACE_KEYS = ("dir = ", "trace_path = ")


def commands(out: Path) -> list[list[str]]:
    """The matrix, in run order, writing under `out`: `run` at seeds 1-3 with
    each predictor kind under CAS and each other skip kind under chtp and
    random-grouping (input-guided at eta 0.05); `record` then `replay`; a
    three-skipper x two-eta trace sweep for chtp and the two uniform forecasts; a synthetic sweep of the
    uniform kinds under --jobs 2; a 2x2x2 eta x p_chaotic x seed sweep under
    --jobs 1; an eps = 0 run; runs at amplitudes 1e150 and 1e-160. Every
    command names its run id, since the default one hashes the output
    directory."""
    o = ["--out", str(out)]
    argvs = []
    for seed in (1, 2, 3):
        for predictor, skipper in [(p, "cas") for p in PREDICTORS] + [
            (p, s) for p in ("chtp", "random-grouping") for s in SKIPPERS[1:]
        ]:
            run_id = f"run-{seed}-{predictor}-{skipper}"
            budget = ("--eta", "0.05") if skipper == "input-guided" else ()
            argvs.append(["run", "--seed", str(seed), "--predictor", predictor,
                          "--skipper", skipper, *budget, *_RUN,
                          *o, "--run-id", run_id])
    trace = str(out / TRACE)
    argvs.append(["record", trace, "--seed", "1", *_TRACE_WORKLOAD, *o, "--run-id", "record"])
    argvs.append(["replay", trace, "--seed", "1", *o, "--run-id", "replay"])
    for predictor in ("chtp", "uniform-linear", "uniform-damped"):
        argvs.append(["sweep", "--seed", "1", "--seeds", "1", "--predictor", predictor,
                      "--set", "workload.kind=trace", "--set", f"workload.trace_path={trace}",
                      "--set", "sweep.eta=0.1,0.4", "--set", f"sweep.skipper={','.join(SKIPPERS)}",
                      *o, "--run-id", f"trace-sweep-{predictor}"])
    argvs.append(["sweep", "--seed", "1", "--seeds", "1,2", "--steps", "20",
                  "--set", "sweep.predictor=uniform-reuse,uniform-linear,uniform-damped",
                  "--set", "sweep.eta=0.1,0.3", "--jobs", "2", *o, "--run-id", "sweep-uniform"])
    argvs.append(["sweep", "--seed", "1", "--seeds", "1,2", "--steps", "20",
                  "--set", "sweep.eta=0.1,0.3", "--set", "sweep.p_chaotic=0.6,0.8",
                  "--jobs", "1", *o, "--run-id", "sweep-2x2x2"])
    argvs.append(["run", "--seed", "2", "--set", "predictor.eps=0", *_RUN, *o,
                  "--run-id", "eps0"])
    for amplitude in ("1e150", "1e-160"):
        argvs.append(["run", "--seed", "1", "--amplitude", amplitude, *_RUN, *o,
                      "--run-id", f"amplitude-{amplitude}"])
    return argvs


def generate(out: Path) -> dict[str, bytes]:
    """Run the matrix through cli.main into `out`; return each output file's
    name and comparable bytes (the trace as its SHA-256 hex digest)."""
    for argv in commands(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise AssertionError(f"exit {code}: worldcache {' '.join(argv)}")
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == TRACE:
            data = hashlib.sha256(data).hexdigest().encode()
        elif path.name.endswith(".manifest.ini"):
            lines = data.decode("utf-8").splitlines(keepends=True)
            data = "".join(l for l in lines if not l.startswith(_PLACE_KEYS)).encode()
        files[path.name] = data
    return files


def build() -> str:
    """The numpy version and BLAS that the bytes depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas_name = "unknown"
    return f"numpy {np.__version__}, BLAS {blas_name}"


def header_text(trace_digest: bytes) -> str:
    return (
        "# Expected outputs of the CLI matrix in tests/pinned_outputs.py.\n"
        f"# Made with {build()}.\n"
        f"# Regenerate: {REGENERATE}\n"
        "# Manifests omit their output-directory and trace-path lines.\n"
        f"{trace_digest.decode()}  {TRACE}\n"
    )


def expected() -> dict[str, bytes]:
    """The committed files, with the trace digest read from HEADER."""
    files = {p.name: p.read_bytes() for p in sorted(DATA.iterdir()) if p.name != HEADER}
    for line in (DATA / HEADER).read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            digest, name = line.split()
            files[name] = digest.encode()
    return files


def recorded_build() -> str:
    for line in (DATA / HEADER).read_text(encoding="utf-8").splitlines():
        if line.startswith("# Made with "):
            return line[len("# Made with "):].rstrip(".")
    return "unknown"


def _relative_change(old: str, new: str) -> float:
    """|new - old| / |old| for two printed values; inf where that is not a
    finite number (a text cell, a NaN or inf on either side, or old 0)."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def column_changes(old: bytes, new: bytes) -> str:
    """What changed in a CSV, by column: each added or removed column, then
    each column whose cells differ, with the largest relative change among
    them ('rel_err max rel 8.9e-16'), or the row counts if those differ."""
    (old_head, *old_rows), (new_head, *new_rows) = (
        list(csv.reader(io.StringIO(data.decode()))) for data in (old, new)
    )
    notes = [f"added {column}" for column in new_head if column not in old_head]
    notes += [f"removed {column}" for column in old_head if column not in new_head]
    if len(old_rows) != len(new_rows):
        return ", ".join(notes + [f"{len(old_rows)} -> {len(new_rows)} rows"])
    worst: dict[str, float] = {}
    for old_row, new_row in zip(old_rows, new_rows):
        new_cells = dict(zip(new_head, new_row))
        for column, a in zip(old_head, old_row):
            b = new_cells.get(column, a)
            if a != b:
                worst[column] = max(worst.get(column, 0.0), _relative_change(a, b))
    return ", ".join(notes + [f"{column} max rel {rel:.2g}" for column, rel in worst.items()])


def _manifest_values(data: bytes) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(data.decode())
    return {section: dict(parser.items(section)) for section in parser.sections()}


def key_changes(old: bytes, new: bytes) -> str:
    """What changed in a manifest, section by section: each added key, each
    removed key, then each key whose value differs ('changed skipper.eta
    0.2 -> 0.3'). Empty if only the layout changed."""
    old_values, new_values = _manifest_values(old), _manifest_values(new)
    notes = []
    for section in dict.fromkeys([*old_values, *new_values]):
        was, now = old_values.get(section, {}), new_values.get(section, {})
        notes += [f"added {section}.{key}" for key in now if key not in was]
        notes += [f"removed {section}.{key}" for key in was if key not in now]
        notes += [f"changed {section}.{key} {value} -> {now[key]}"
                  for key, value in was.items() if key in now and now[key] != value]
    return ", ".join(notes)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = generate(Path(tmp))
    old = expected() if DATA.exists() else {}
    if old and recorded_build() != build():
        print(f"changed {HEADER}: made with {recorded_build()}, now {build()}")
    for name in sorted(old.keys() | files.keys()):
        if name not in old:
            print(f"added {name}")
        elif name not in files:
            print(f"removed {name}")
        elif old[name] != files[name]:
            notes = ""
            if name.endswith(".csv"):
                notes = column_changes(old[name], files[name])
            elif name.endswith(".manifest.ini"):
                notes = key_changes(old[name], files[name])
            print(f"changed {name}: {notes}" if notes else f"changed {name}")
    if DATA.exists():
        shutil.rmtree(DATA)
    DATA.mkdir(parents=True)
    digest = files.pop(TRACE)
    for name, data in files.items():
        (DATA / name).write_bytes(data)
    (DATA / HEADER).write_text(header_text(digest), encoding="utf-8")
    print(f"wrote {len(files)} files and {HEADER} to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
