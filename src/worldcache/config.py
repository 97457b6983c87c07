"""Experiment configuration: strict INI schema with full-default echo.

A config document has sections [workload], [predictor], [skipper],
[scheduler], [output] and, for sweeps, [sweep]. Every key is typed and
validated; unknown sections or keys are hard errors. Precedence is
flags > config file > defaults. _KIND_KEYS names the [workload] keys each
workload.kind reads; setting another is an error too. The resolved
configuration can be echoed back as a canonical INI document; a [meta]
section in an input file (as written into run manifests) is accepted and
ignored, so any manifest is itself a loadable config.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Any

from .backbone_sim import Preset, SyntheticSpec
from .errors import ConfigError
from .pipeline import EulerScheduler, uniform_grid
from .predictor import PredictorConfig, PredictorKind
from .skipper import SkipConfig, SkipKind


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    val = float(raw)
    if math.isnan(val):
        raise ValueError("NaN is not a valid value")
    return val


_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str.strip,
    "bool": _parse_bool,
}

# Sweep axis -> the (section, key) each of its values sets. This order is
# the column order of sweep grids; an axis takes its value type from SCHEMA.
_AXIS_TARGET = {
    "eta": ("skipper", "eta"),
    "p_stable": ("predictor", "p_stable"),
    "p_chaotic": ("predictor", "p_chaotic"),
    "n_max": ("predictor", "n_max"),
    "predictor": ("predictor", "kind"),
    "skipper": ("skipper", "kind"),
    "interval": ("skipper", "interval"),
}
SWEEP_AXES = tuple(_AXIS_TARGET)

# section -> key -> (type name, default). A None default means "unset".
# Policy and workload defaults are the dataclasses' own.
SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "workload": {
        "kind": ("str", "synthetic"),
        "preset": ("str", SyntheticSpec.preset.value),
        "n_tokens": ("int", SyntheticSpec.n_tokens),
        "dims": ("int", SyntheticSpec.dims),
        "stable_fraction": ("float", SyntheticSpec.fractions[0]),
        "linear_fraction": ("float", SyntheticSpec.fractions[1]),
        "chaotic_fraction": ("float", SyntheticSpec.fractions[2]),
        "turn_step": ("int", SyntheticSpec.turn_step),
        "amplitude": ("float", SyntheticSpec.amplitude),
        "frequency": ("float", SyntheticSpec.frequency),
        "noise_sigma": ("float", SyntheticSpec.noise_sigma),
        "coupling": ("float", SyntheticSpec.coupling),
        "seed": ("int", None),
        "trace_path": ("str", ""),
    },
    "predictor": {
        "kind": ("str", PredictorConfig.kind.value),
        "n_max": ("int", PredictorConfig.n_max),
        "rng_seed": ("int", PredictorConfig.rng_seed),
        "p_stable": ("float", PredictorConfig.p_stable),
        "p_chaotic": ("float", PredictorConfig.p_chaotic),
        "eps": ("float", PredictorConfig.eps),
    },
    "skipper": {
        "kind": ("str", SkipConfig.kind.value),
        "eta": ("float", SkipConfig.eta),
        "interval": ("int", SkipConfig.interval),
        "enforce_streak_cap": ("bool", SkipConfig.enforce_streak_cap),
    },
    "scheduler": {
        "steps": ("int", 50),
        "t_max": ("float", None),
    },
    "output": {
        "dir": ("str", "."),
        "run_id": ("str", ""),
    },
    "sweep": {**{axis: ("str", "") for axis in _AXIS_TARGET}, "seeds": ("str", "")},
}

# workload.kind -> the [workload] keys it reads besides kind: merge rejects any
# other set to a value, and echo_config writes only these.
_KIND_KEYS = {
    "synthetic": tuple(key for key in SCHEMA["workload"] if key not in ("kind", "trace_path")),
    "trace": ("seed", "trace_path"),
}

_ENUMS = {
    ("workload", "kind"): tuple(_KIND_KEYS),
    ("workload", "preset"): tuple(p.value for p in Preset),
    ("predictor", "kind"): tuple(k.value for k in PredictorKind),
    ("skipper", "kind"): tuple(k.value for k in SkipKind),
}


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully-typed configuration with every key materialized."""

    values: dict[str, dict[str, Any]]

    def synthetic_spec(self) -> SyntheticSpec:
        w = {key: self.values["workload"][key] for key in _KIND_KEYS["synthetic"]}
        fractions = tuple(w.pop(f"{part}_fraction") for part in ("stable", "linear", "chaotic"))
        return SyntheticSpec(fractions=fractions, **w)

    def synthetic_scheduler(self) -> EulerScheduler:
        sched = self.values["scheduler"]
        return EulerScheduler(uniform_grid(sched["steps"], sched["t_max"]))

    def predictor_config(self) -> PredictorConfig:
        p = dict(self.values["predictor"])
        p["kind"] = PredictorKind(p["kind"])
        if p["rng_seed"] is None and p["kind"] is PredictorKind.RANDOM_GROUPING:
            p["rng_seed"] = self.values["workload"]["seed"]
        return PredictorConfig(**p)

    def skip_config(self) -> SkipConfig:
        s = dict(self.values["skipper"])
        s["kind"] = SkipKind(s["kind"])
        return SkipConfig(**s)


def read_config_file(path) -> dict[str, dict[str, str]]:
    """Read an INI document into raw strings, validating the key set."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    raw = {
        section: dict(parser.items(section))
        for section in parser.sections()
        if section != "meta"  # manifests carry provenance here; not configuration
    }
    _check_known(raw, str(path))
    return raw


def _check_known(raw: dict[str, dict[str, str]], origin: str) -> None:
    for section, keys in raw.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {origin}")
        for key in keys:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key} in {origin}")


def _parse(section: str, key: str, type_name: str, raw: str, where: str) -> Any:
    """Parse one raw value of SCHEMA type `type_name` bound for section.key;
    `where` names the value in the error message."""
    try:
        val = _PARSERS[type_name](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r} ({exc})") from exc
    allowed = _ENUMS.get((section, key))
    if allowed and val not in allowed:
        raise ConfigError(
            f"bad value for {where}: {raw!r} (expected one of {', '.join(allowed)})"
        )
    return val


def resolve(
    file_raw: dict[str, dict[str, str]] | None = None,
    overrides: dict[str, dict[str, str]] | None = None,
) -> ResolvedConfig:
    """merge(file_raw, overrides), then check the result as a run's config."""
    cfg = merge(file_raw, overrides)
    _validate(cfg)
    return cfg


def merge(
    file_raw: dict[str, dict[str, str]] | None = None,
    overrides: dict[str, dict[str, str]] | None = None,
) -> ResolvedConfig:
    """Merge defaults < file < overrides and parse to typed values, without
    the cross-key checks of resolve().

    Unknown sections or keys in either source are hard errors: a typoed knob
    must never silently fall back to its default. So is a non-empty [workload]
    value that the merged workload.kind does not read, since it would do nothing.
    """
    if file_raw:
        _check_known(file_raw, "config file")
    if overrides:
        _check_known(overrides, "overrides")
    values: dict[str, dict[str, Any]] = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (type_name, default) in keys.items():
            raw = None
            if file_raw and key in file_raw.get(section, {}):
                raw = file_raw[section][key]
            if overrides and key in overrides.get(section, {}):
                raw = overrides[section][key]
            if raw is None:
                values[section][key] = default
                continue
            raw = str(raw)
            kind = values["workload"].get("kind")  # SCHEMA lists workload.kind first
            unread = section == "workload" and key != "kind" and key not in _KIND_KEYS[kind]
            if raw == "" and (default is None or unread):
                values[section][key] = default
                continue
            if unread:
                raise ConfigError(f"workload.{key} is set, but workload.kind = {kind} "
                                  "does not read it")
            where = f"{section}.{key}"
            values[section][key] = _parse(section, key, type_name, raw, where)
    return ResolvedConfig(values)


def _validate(cfg: ResolvedConfig) -> None:
    w = cfg.values["workload"]
    if w["kind"] == "synthetic":
        if w["seed"] is None:
            raise ConfigError(
                "workload.seed is required for synthetic (stochastic) workloads"
            )
        try:
            cfg.synthetic_spec()
        except Exception as exc:
            raise ConfigError(f"invalid workload parameters: {exc}") from exc
    elif not w["trace_path"]:
        raise ConfigError("workload.trace_path is required when kind = trace")
    try:
        cfg.predictor_config()
        cfg.skip_config()
    except Exception as exc:
        raise ConfigError(f"invalid policy parameters: {exc}") from exc
    if w["kind"] == "synthetic":
        try:
            cfg.synthetic_scheduler()
        except Exception as exc:
            raise ConfigError(f"invalid scheduler parameters: {exc}") from exc


def format_value(val: Any) -> str:
    """Canonical string form (floats round-trip at 17 significant digits)."""
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return format(val, ".17g")
    return str(val)


def echo_config(cfg: ResolvedConfig, meta: dict[str, str] | None = None) -> str:
    """Serialize the fully-resolved configuration as canonical INI text. Of
    [workload] it writes kind and the keys that kind reads, and for a trace,
    which replays its own grid, it leaves out [scheduler], which nothing reads."""
    kind = cfg.values["workload"]["kind"]
    lines: list[str] = []
    if meta:
        lines.append("[meta]")
        for key, val in meta.items():
            lines.append(f"{key} = {val}")
        lines.append("")
    for section in SCHEMA:
        if section == "scheduler" and kind == "trace":
            continue
        lines.append(f"[{section}]")
        keys = ("kind", *_KIND_KEYS[kind]) if section == "workload" else SCHEMA[section]
        for key in keys:
            lines.append(f"{key} = {format_value(cfg.values[section][key])}")
        lines.append("")
    return "\n".join(lines)


def sweep_axes(cfg: ResolvedConfig) -> dict[str, list[str]]:
    """Parse the [sweep] section's populated axes, in canonical order."""
    sw = cfg.values["sweep"]
    axes: dict[str, list[str]] = {}
    for name in SWEEP_AXES:
        raw = sw.get(name, "")
        if not raw:
            continue
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ConfigError(f"sweep.{name} lists no values")
        section, key = _AXIS_TARGET[name]
        for item in items:
            _parse(section, key, SCHEMA[section][key][0], item, f"sweep.{name}")
        axes[name] = items
    return axes


def sweep_seeds(cfg: ResolvedConfig) -> list[int]:
    raw = cfg.values["sweep"]["seeds"]
    if not raw:
        raise ConfigError("sweep.seeds is required for sweeps")
    try:
        seeds = [int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep.seeds list: {raw!r}") from exc
    if not seeds:
        raise ConfigError("sweep.seeds lists no values")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"sweep.seeds must be >= 0, got {raw!r}")
    return seeds


def apply_axis_override(
    overrides: dict[str, dict[str, str]], axis: str, value: str
) -> None:
    """Route one sweep-axis value onto its (section, key) override slot."""
    section, key = _AXIS_TARGET[axis]
    overrides.setdefault(section, {})[key] = value
