"""Command line harness.

Subcommands:
  run       execute one cached run against its no-cache reference, write CSVs
  sweep     grid of runs over policy knobs x seeds, one CSV row per run
  record    save a reference trajectory to a .wct trace file
  replay    run the cache policy against a recorded trace
  validate  check a trace file and print its summary

Every output batch gets a sibling ``<stem>.manifest.ini`` holding the fully
resolved configuration; feeding that manifest back through ``--config``
reproduces the outputs byte for byte.

Exit codes: 0 success, 1 bad usage or configuration, 2 runtime failure.
A sweep with any failed cell exits 2 after writing the CSV of the cells
that succeeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__, kernels
from .backbone_sim import (
    SyntheticBackbone,
    TRACE_EXTENSION,
    TraceBackbone,
    cast_block,
    read_trace,
    validate_trace,
    write_trace,
)
from .bench import RunMetrics, compare_runs, sweep
from .config import (
    ResolvedConfig,
    echo_config,
    format_value,
    merge,
    read_config_file,
    resolve,
    sweep_axes,
    sweep_cell,
    sweep_seeds,
)
from .core import TokenMatrix
from .errors import ConfigError, WorldCacheError
from .pipeline import Backbone, EulerScheduler, RunResult, oracle_run, run

STEP_COLUMNS = (
    "step",
    "timestep",
    "decision",
    "k",
    "E_t",
    "E_acc",
    "rel_err",
    "stable_err",
    "linear_err",
    "chaotic_err",
)

METRIC_COLUMNS = (
    "run_id",
    "steps",
    "full_count",
    "cache_count",
    "full_ratio",
    "est_speedup",
    "final_rel_err",
    "mean_rel_err",
)


class _Parser(argparse.ArgumentParser):
    # usage problems must land on exit code 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


# dest -> (section, key, help) of the flags shared by all run-like
# subcommands; each flag is "--" plus its dest with "-" for "_".
_FLAGS = {
    "seed": ("workload", "seed", "workload seed"),
    "preset": ("workload", "preset", "synthetic preset (mixed, smooth, turnpoint)"),
    "n_tokens": ("workload", "n_tokens", None),
    "dims": ("workload", "dims", None),
    "noise_sigma": ("workload", "noise_sigma", None),
    "coupling": ("workload", "coupling", None),
    "amplitude": ("workload", "amplitude", None),
    "frequency": ("workload", "frequency", None),
    "turn_step": ("workload", "turn_step", None),
    "predictor": ("predictor", "kind", "predictor kind"),
    "n_max": ("predictor", "n_max", None),
    "rng_seed": ("predictor", "rng_seed", None),
    "p_stable": ("predictor", "p_stable", None),
    "p_chaotic": ("predictor", "p_chaotic", None),
    "skipper": ("skipper", "kind", "skip policy kind"),
    "eta": ("skipper", "eta", "budget of a streak's summed score (cas, input-guided)"),
    "interval": ("skipper", "interval", None),
    "steps": ("scheduler", "steps", None),
    "t_max": ("scheduler", "t_max", None),
    "out": ("output", "dir", "output directory"),
    "run_id": ("output", "run_id", None),
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="INI config file (or a manifest)")
    p.add_argument(
        "--set",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        dest="assignments",
        help="override any config key; repeatable",
    )
    for dest, (_, _, help_text) in _FLAGS.items():
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="worldcache", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"worldcache {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="one cached run vs its no-cache reference")
    _add_common_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over policy knobs x seeds")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--seeds", help="comma list of workload seeds")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes (default: 1)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_rec = sub.add_parser("record", help="save a reference trajectory as a trace")
    p_rec.add_argument("trace", help="output trace path (*.wct)")
    _add_common_flags(p_rec)
    p_rec.set_defaults(func=cmd_record)

    p_rep = sub.add_parser("replay", help="run the cache policy against a trace")
    p_rep.add_argument("trace", help="input trace path; its own timestep grid is "
                       "replayed, so [scheduler] keys such as --steps are ignored")
    _add_common_flags(p_rep)
    p_rep.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a trace file, print its summary")
    p_val.add_argument("trace", help="trace path to inspect")
    p_val.set_defaults(func=cmd_validate)
    return parser


def _collect_overrides(args) -> dict[str, dict[str, str]]:
    overrides: dict[str, dict[str, str]] = {}
    for dest, (section, key, _) in _FLAGS.items():
        val = getattr(args, dest, None)
        if val is not None:
            overrides.setdefault(section, {})[key] = str(val)
    for item in getattr(args, "assignments", []):
        target, sep, value = item.partition("=")
        if not sep or "." not in target:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        section, key = target.split(".", 1)
        overrides.setdefault(section.strip(), {})[key.strip()] = value
    if getattr(args, "command", "") == "replay":
        overrides.setdefault("workload", {})["kind"] = "trace"
        overrides["workload"]["trace_path"] = args.trace
    return overrides


def _load(args) -> ResolvedConfig:
    """The config of a one-run command, which reads no [sweep] key: setting one
    would only change the run id."""
    file_raw = read_config_file(args.config) if getattr(args, "config", None) else None
    cfg = resolve(file_raw, _collect_overrides(args))
    for key, val in cfg.values["sweep"].items():
        if val:
            raise ConfigError(f"sweep.{key} is set, but {args.command} does not read it")
    return cfg


def _run_identifier(cfg: ResolvedConfig) -> str:
    explicit = cfg.values["output"]["run_id"]
    if explicit:
        return explicit
    digest = hashlib.sha256(echo_config(cfg.values).encode("utf-8")).hexdigest()
    return "run-" + digest[:12]


def _write_manifest(path: Path, cfg: ResolvedConfig, command: str, run_id: str) -> None:
    values = {**cfg.values, "output": {**cfg.values["output"], "run_id": run_id}}
    meta = {"version": __version__, "command": command, "backend": kernels.BACKEND}
    path.write_text(echo_config(values, meta), encoding="utf-8")


class _Reference(NamedTuple):
    """A workload, its no-cache run and the outputs every cached run on it is
    scored against: the oracle's, or a trace's own float32 blocks."""

    backbone: Backbone
    scheduler: EulerScheduler
    z_init: TokenMatrix
    oracle: RunResult
    outputs: Sequence | None


def _reference(cfg: ResolvedConfig) -> _Reference:
    """Builds the workload of cfg's [workload] and [scheduler] sections (they
    are all it reads) and runs its oracle."""
    w = cfg.values["workload"]
    if w["kind"] == "trace":
        backbone = read_trace(w["trace_path"])
        scheduler, outputs = EulerScheduler(backbone.replay_grid()), backbone.outputs.references
    else:
        backbone, scheduler, outputs = SyntheticBackbone(cfg.spec), cfg.scheduler, None
    z_init = backbone.initial_latent()
    oracle = oracle_run(backbone, scheduler, z_init, record_outputs=outputs is None)
    outputs = oracle.surrogates if outputs is None else outputs
    return _Reference(backbone, scheduler, z_init, oracle, outputs)


def _execute(
    cfg: ResolvedConfig, ref: _Reference, full_records: bool = True
) -> tuple[RunResult, RunMetrics]:
    cached = run(
        ref.backbone,
        ref.scheduler,
        ref.z_init,
        cfg.predictor,
        cfg.skipper,
        oracle_outputs=ref.outputs,
        full_records=full_records,
    )
    return cached, compare_runs(cached, ref.oracle)


def _write_steps_csv(path: Path, result: RunResult) -> None:
    lines = [",".join(STEP_COLUMNS)]
    for r in result.records:
        fields = [str(r.step), format_value(r.timestep), r.decision.value, str(r.k)]
        floats = (r.e_t, r.e_acc, r.rel_err, r.stable_err, r.linear_err, r.chaotic_err)
        lines.append(",".join(fields + [format_value(v) for v in floats]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _metric_fields(run_id_or_seed: str, m: RunMetrics) -> list[str]:
    return [
        run_id_or_seed,
        str(m.steps),
        str(m.full_count),
        str(m.cache_count),
        format_value(m.full_ratio),
        format_value(m.est_speedup),
        format_value(m.final_latent_rel_error),
        format_value(m.mean_rel_error),
    ]


def _write_metrics_csv(path: Path, run_id: str, m: RunMetrics) -> None:
    lines = [",".join(METRIC_COLUMNS), ",".join(_metric_fields(run_id, m))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(args) -> int:
    cfg = _load(args)
    run_id = _run_identifier(cfg)
    cached, metrics = _execute(cfg, _reference(cfg))

    out_dir = Path(cfg.values["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    steps_path = out_dir / f"{run_id}.steps.csv"
    metrics_path = out_dir / f"{run_id}.metrics.csv"
    manifest_path = out_dir / f"{run_id}.manifest.ini"
    _write_steps_csv(steps_path, cached)
    _write_metrics_csv(metrics_path, run_id, metrics)
    _write_manifest(manifest_path, cfg, args.command, run_id)

    print(
        f"{run_id}: steps={metrics.steps} full={metrics.full_count} "
        f"cache={metrics.cache_count} full_ratio={metrics.full_ratio:.4f} "
        f"est_speedup={metrics.est_speedup:.3f} "
        f"final_rel_err={metrics.final_latent_rel_error:.3e} "
        f"mean_rel_err={metrics.mean_rel_error:.3e}"
    )
    for p in (steps_path, metrics_path, manifest_path):
        print(f"wrote {p}")
    return 0


def _sweep_cells(file_raw, base_overrides, seed):
    """One seed's cells, sharing the seed's base config and its reference
    (sweep axes set only [predictor] and [skipper] keys); module level so
    process pools can pickle it."""
    overrides = {sec: dict(kv) for sec, kv in base_overrides.items()}
    overrides.setdefault("workload", {})["seed"] = str(seed)
    cfg = resolve(file_raw, overrides)
    return functools.partial(_sweep_worker, cfg, _reference(cfg))


def _sweep_worker(cfg, ref, point) -> RunMetrics:
    """One sweep cell: its seed's config at point, scored against the seed's
    reference. The sweep CSV reads only the counts and the relative errors,
    so the run keeps no full records: no per-group error is scored, and
    outside CAS no drift."""
    return _execute(sweep_cell(cfg, point), ref, full_records=False)[1]


def cmd_sweep(args) -> int:
    if getattr(args, "seeds", None):
        args.assignments.append(f"sweep.seeds={args.seeds}")
    file_raw = read_config_file(args.config) if args.config else None
    overrides = _collect_overrides(args)
    unchecked = merge(file_raw, overrides)
    axes = sweep_axes(unchecked)
    if not axes:
        raise ConfigError("sweep needs at least one populated axis in [sweep]")
    seeds = sweep_seeds(unchecked)
    # each cell sets its own seed: check, echo and hash the sweep at its first
    overrides.setdefault("workload", {})["seed"] = str(seeds[0])
    cfg = resolve(file_raw, overrides)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")

    run_id = _run_identifier(cfg)
    out_dir = Path(cfg.values["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = sweep(functools.partial(_sweep_cells, file_raw, overrides), axes, seeds,
                 jobs=args.jobs)

    axis_names = list(axes.keys())
    header = axis_names + ["seed"] + list(METRIC_COLUMNS[1:])
    lines = [",".join(header)]
    failures = 0
    for row in rows:
        if row.error is not None:
            failures += 1
            cell = ", ".join(f"{k}={v}" for k, v in row.point.items())
            print(
                f"sweep cell failed ({cell}, seed={row.seed}): {row.error}",
                file=sys.stderr,
            )
            continue
        fields = [str(row.point[name]) for name in axis_names]
        fields += _metric_fields(str(row.seed), row.metrics)
        lines.append(",".join(fields))

    sweep_path = out_dir / f"{run_id}.sweep.csv"
    manifest_path = out_dir / f"{run_id}.manifest.ini"
    sweep_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(manifest_path, cfg, "sweep", run_id)

    print(
        f"{run_id}: {len(rows) - failures}/{len(rows)} cells ok "
        f"({len(axes)} axes, {len(seeds)} seeds)"
    )
    for p in (sweep_path, manifest_path):
        print(f"wrote {p}")
    return 2 if failures else 0


def cmd_record(args) -> int:
    cfg = _load(args)
    if cfg.values["workload"]["kind"] != "synthetic":
        raise ConfigError("record requires a synthetic workload")
    if cfg.values["scheduler"]["steps"] < 1:
        raise ConfigError("record requires scheduler.steps >= 1")
    trace_path = Path(args.trace)
    if trace_path.suffix != TRACE_EXTENSION:
        trace_path = trace_path.with_suffix(trace_path.suffix + TRACE_EXTENSION)

    # cast each output as it is made: no float64 outputs are held together
    spec, steps, backbone = cfg.spec, cfg.values["scheduler"]["steps"], SyntheticBackbone(cfg.spec)
    blocks = np.empty((steps, spec.n_tokens, spec.dims), dtype=np.float32)
    slots = enumerate(blocks)
    oracle_run(backbone, cfg.scheduler, backbone.initial_latent(), record_outputs=False,
               sink=lambda y: cast_block(*next(slots), y.data))
    grid = cfg.scheduler.timesteps[:steps]
    write_trace(trace_path, TraceBackbone(grid, blocks))

    run_id = _run_identifier(cfg)
    manifest_path = trace_path.with_name(trace_path.stem + ".manifest.ini")
    _write_manifest(manifest_path, cfg, "record", run_id)

    print(
        f"recorded {trace_path}: {steps} steps, {spec.n_tokens}x{spec.dims} tokens, "
        f"t in [{grid[-1].value:g}, {grid[0].value:g}]"
    )
    print(f"wrote {manifest_path}")
    return 0


def cmd_validate(args) -> int:
    summary = validate_trace(args.trace)
    for key, val in summary.items():
        print(f"{key}: {format_value(val) if isinstance(val, float) else val}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (WorldCacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
