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
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .backbone_sim import (
    SyntheticBackbone,
    TRACE_EXTENSION,
    TraceBackbone,
    read_trace,
    validate_trace,
    write_trace,
)
from .bench import RunMetrics, SweepRow, compare_runs, sweep
from .config import (
    ResolvedConfig,
    apply_axis_override,
    echo_config,
    format_value,
    read_config_file,
    resolve,
    sweep_axes,
    sweep_seeds,
)
from .core import TokenMatrix
from .errors import ConfigError, WorldCacheError
from .pipeline import EulerScheduler, RunResult, oracle_run, run, uniform_grid

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


# flag name -> (section, key); shared by all run-like subcommands
_FLAG_MAP = {
    "seed": ("workload", "seed"),
    "preset": ("workload", "preset"),
    "n_tokens": ("workload", "n_tokens"),
    "dims": ("workload", "dims"),
    "noise_sigma": ("workload", "noise_sigma"),
    "coupling": ("workload", "coupling"),
    "amplitude": ("workload", "amplitude"),
    "frequency": ("workload", "frequency"),
    "turn_step": ("workload", "turn_step"),
    "predictor": ("predictor", "kind"),
    "n_max": ("predictor", "n_max"),
    "horizon_mode": ("predictor", "horizon_mode"),
    "rng_seed": ("predictor", "rng_seed"),
    "p_stable": ("predictor", "p_stable"),
    "p_chaotic": ("predictor", "p_chaotic"),
    "skipper": ("skipper", "kind"),
    "eta": ("skipper", "eta"),
    "interval": ("skipper", "interval"),
    "tau": ("skipper", "tau"),
    "warmup_fulls": ("skipper", "warmup_fulls"),
    "steps": ("scheduler", "steps"),
    "t_max": ("scheduler", "t_max"),
    "out": ("output", "dir"),
    "run_id": ("output", "run_id"),
    "c_cache": ("output", "c_cache"),
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
    p.add_argument("--seed", help="workload seed")
    p.add_argument("--preset", help="synthetic preset (mixed, smooth, turnpoint)")
    p.add_argument("--n-tokens", dest="n_tokens")
    p.add_argument("--dims")
    p.add_argument("--noise-sigma", dest="noise_sigma")
    p.add_argument("--coupling")
    p.add_argument("--amplitude")
    p.add_argument("--frequency")
    p.add_argument("--turn-step", dest="turn_step")
    p.add_argument("--predictor", help="predictor kind")
    p.add_argument("--n-max", dest="n_max")
    p.add_argument("--horizon-mode", dest="horizon_mode")
    p.add_argument("--rng-seed", dest="rng_seed")
    p.add_argument("--p-stable", dest="p_stable")
    p.add_argument("--p-chaotic", dest="p_chaotic")
    p.add_argument("--skipper", help="skip policy kind")
    p.add_argument("--eta", help="drift budget threshold")
    p.add_argument("--interval")
    p.add_argument("--tau")
    p.add_argument("--warmup-fulls", dest="warmup_fulls")
    p.add_argument("--steps")
    p.add_argument("--t-max", dest="t_max")
    p.add_argument("--out", help="output directory")
    p.add_argument("--run-id", dest="run_id")
    p.add_argument("--c-cache", dest="c_cache")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="worldcache", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"worldcache {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="one cached run vs its no-cache reference")
    _add_common_flags(p_run)
    p_run.add_argument("--trace", help="replay this trace instead of a synthetic workload")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over policy knobs x seeds")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--seeds", help="comma list of workload seeds")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=int(os.environ.get("WORLDCACHE_JOBS", "1")),
        help="parallel worker processes (default: WORLDCACHE_JOBS or 1)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_rec = sub.add_parser("record", help="save a reference trajectory as a trace")
    p_rec.add_argument("trace", help="output trace path (*.wct)")
    _add_common_flags(p_rec)
    p_rec.set_defaults(func=cmd_record)

    p_rep = sub.add_parser("replay", help="run the cache policy against a trace")
    p_rep.add_argument("trace", help="input trace path")
    _add_common_flags(p_rep)
    p_rep.set_defaults(func=cmd_replay)

    p_val = sub.add_parser("validate", help="check a trace file, print its summary")
    p_val.add_argument("trace", help="trace path to inspect")
    p_val.set_defaults(func=cmd_validate)
    return parser


def _collect_overrides(args) -> dict[str, dict[str, str]]:
    overrides: dict[str, dict[str, str]] = {}
    for dest, (section, key) in _FLAG_MAP.items():
        val = getattr(args, dest, None)
        if val is not None:
            overrides.setdefault(section, {})[key] = str(val)
    for item in getattr(args, "assignments", []):
        target, sep, value = item.partition("=")
        if not sep or "." not in target:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        section, key = target.split(".", 1)
        overrides.setdefault(section.strip(), {})[key.strip()] = value
    trace = getattr(args, "trace", None)
    if trace and getattr(args, "command", "") in ("run", "replay"):
        overrides.setdefault("workload", {})["kind"] = "trace"
        overrides["workload"]["trace_path"] = str(trace)
    return overrides


def _load(args) -> ResolvedConfig:
    file_raw = read_config_file(args.config) if getattr(args, "config", None) else None
    return resolve(file_raw, _collect_overrides(args))


def _run_identifier(cfg: ResolvedConfig) -> str:
    explicit = cfg.values["output"]["run_id"]
    if explicit:
        return explicit
    digest = hashlib.sha256(echo_config(cfg).encode("utf-8")).hexdigest()
    return "run-" + digest[:12]


def _manifest_meta(command: str) -> dict[str, str]:
    return {
        "version": __version__,
        "command": command,
        "backend": kernels.BACKEND,
    }


def _write_manifest(path: Path, cfg: ResolvedConfig, command: str, run_id: str) -> None:
    values = {sec: dict(kv) for sec, kv in cfg.values.items()}
    values["output"]["run_id"] = run_id
    text = echo_config(ResolvedConfig(values), _manifest_meta(command))
    path.write_text(text, encoding="utf-8")


def _build_workload(cfg: ResolvedConfig):
    """Returns (backbone, scheduler, z_init) for either workload kind."""
    w = cfg.values["workload"]
    if w["kind"] == "trace":
        backbone = TraceBackbone(read_trace(w["trace_path"]))
        grid = backbone.replay_grid()
    else:
        backbone = SyntheticBackbone(cfg.synthetic_spec())
        grid = uniform_grid(
            cfg.values["scheduler"]["steps"], cfg.values["scheduler"]["t_max"]
        )
    return backbone, EulerScheduler(grid), backbone.initial_latent()


def _execute(cfg: ResolvedConfig) -> tuple[RunResult, RunResult, RunMetrics]:
    backbone, scheduler, z_init = _build_workload(cfg)
    reference = oracle_run(backbone, scheduler, z_init)
    cached = run(
        backbone,
        scheduler,
        z_init,
        cfg.predictor_config(),
        cfg.skip_config(),
        record_outputs=True,
        oracle_outputs=reference.surrogates,
    )
    metrics = compare_runs(cached, reference, cfg.values["output"]["c_cache"])
    return cached, reference, metrics


def _fmt(val) -> str:
    return format_value(val)


def _write_steps_csv(path: Path, result: RunResult) -> None:
    lines = [",".join(STEP_COLUMNS)]
    for r in result.records:
        lines.append(
            ",".join(
                (
                    str(r.step),
                    _fmt(r.timestep),
                    r.decision.value,
                    str(r.k),
                    _fmt(r.e_t),
                    _fmt(r.e_acc),
                    _fmt(r.rel_err),
                    _fmt(r.stable_err),
                    _fmt(r.linear_err),
                    _fmt(r.chaotic_err),
                )
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _metric_fields(run_id_or_seed: str, m: RunMetrics) -> list[str]:
    return [
        run_id_or_seed,
        str(m.steps),
        str(m.full_count),
        str(m.cache_count),
        _fmt(m.full_ratio),
        _fmt(m.est_speedup),
        _fmt(m.final_latent_rel_error),
        _fmt(m.mean_rel_error),
    ]


def _write_metrics_csv(path: Path, run_id: str, m: RunMetrics) -> None:
    lines = [",".join(METRIC_COLUMNS), ",".join(_metric_fields(run_id, m))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(args) -> int:
    cfg = _load(args)
    run_id = _run_identifier(cfg)
    out_dir = Path(cfg.values["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    cached, _, metrics = _execute(cfg)

    steps_path = out_dir / f"{run_id}.steps.csv"
    metrics_path = out_dir / f"{run_id}.metrics.csv"
    manifest_path = out_dir / f"{run_id}.manifest.ini"
    _write_steps_csv(steps_path, cached)
    _write_metrics_csv(metrics_path, run_id, metrics)
    _write_manifest(manifest_path, cfg, "run", run_id)

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


def _sweep_worker(file_raw, base_overrides, point, seed) -> RunMetrics:
    """One sweep cell; module level so process pools can pickle it."""
    overrides = {sec: dict(kv) for sec, kv in base_overrides.items()}
    for axis, value in point.items():
        apply_axis_override(overrides, axis, value)
    overrides.setdefault("workload", {})["seed"] = str(seed)
    cfg = resolve(file_raw, overrides)
    _, _, metrics = _execute(cfg)
    return metrics


def cmd_sweep(args) -> int:
    if getattr(args, "seeds", None):
        args.assignments.append(f"sweep.seeds={args.seeds}")
    cfg = _load(args)
    axes = sweep_axes(cfg)
    if not axes:
        raise ConfigError("sweep needs at least one populated axis in [sweep]")
    seeds = sweep_seeds(cfg)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")

    run_id = _run_identifier(cfg)
    out_dir = Path(cfg.values["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    file_raw = read_config_file(args.config) if args.config else None
    worker = functools.partial(_sweep_worker, file_raw, _collect_overrides(args))
    rows = sweep(worker, axes, seeds, jobs=args.jobs)

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
        fields += _metric_fields(str(row.seed), row.metrics)[0:]
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
    trace_path = Path(args.trace)
    if trace_path.suffix != TRACE_EXTENSION:
        trace_path = trace_path.with_suffix(trace_path.suffix + TRACE_EXTENSION)
    trace_path.parent.mkdir(parents=True, exist_ok=True)

    backbone, scheduler, z_init = _build_workload(cfg)
    reference = oracle_run(backbone, scheduler, z_init)
    grid = scheduler.timesteps
    outputs = np.stack([m.data for m in reference.surrogates]).astype(np.float32)
    write_trace(trace_path, grid[: len(reference.surrogates)], outputs)

    run_id = _run_identifier(cfg)
    manifest_path = trace_path.with_name(trace_path.stem + ".manifest.ini")
    _write_manifest(manifest_path, cfg, "record", run_id)

    summary = validate_trace(trace_path)
    print(
        f"recorded {trace_path}: {summary['n_steps']} steps, "
        f"{summary['n_tokens']}x{summary['dims']} tokens, "
        f"t in [{summary['t_last']:g}, {summary['t_first']:g}]"
    )
    print(f"wrote {manifest_path}")
    return 0


def cmd_replay(args) -> int:
    return cmd_run(args)


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
