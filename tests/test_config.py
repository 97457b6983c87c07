import dataclasses

import pytest

from worldcache import (
    ConfigError,
    PredictorConfig,
    PredictorKind,
    SkipConfig,
    SkipKind,
    SyntheticSpec,
)
from worldcache.config import (
    SCHEMA,
    SWEEP_AXES,
    _AXIS_TARGET,
    _KIND_KEYS,
    echo_config,
    format_value,
    merge,
    read_config_file,
    resolve,
    sweep_axes,
    sweep_cell,
    sweep_seeds,
)


def _resolve(file_raw=None, **overrides_by_section):
    overrides = {
        sec: {k: str(v) for k, v in kv.items()}
        for sec, kv in overrides_by_section.items()
    }
    return resolve(file_raw, overrides)


class TestDefaults:
    def test_paper_scale_defaults(self):
        cfg = _resolve(workload={"seed": 7})
        assert cfg.values["predictor"]["p_stable"] == 0.3
        assert cfg.values["predictor"]["p_chaotic"] == 0.7
        assert cfg.values["predictor"]["n_max"] == 6
        assert cfg.values["predictor"]["eps"] == 1e-8
        assert cfg.values["skipper"]["eta"] == 0.2
        assert cfg.values["scheduler"]["steps"] == 50

    def test_resolve_builds_the_run_s_parts(self):
        cfg = _resolve(workload={"seed": 7})
        assert cfg.spec.seed == 7
        assert cfg.predictor.kind is PredictorKind.CHTP
        assert cfg.skipper.kind is SkipKind.CAS
        assert [t.value for t in cfg.scheduler.timesteps] == [float(50 - i) for i in range(51)]

    def test_a_trace_builds_no_workload_or_grid(self):
        # the trace's own blocks and grid are replayed
        cfg = _resolve(workload={"kind": "trace", "trace_path": "t.wct"})
        assert cfg.spec is None and cfg.scheduler is None
        assert cfg.skipper == SkipConfig()

    def test_defaults_are_the_dataclasses_own(self):
        cfg = _resolve(workload={"seed": 7})
        assert cfg.predictor == PredictorConfig()
        assert cfg.skipper == SkipConfig()
        assert cfg.spec == SyntheticSpec(seed=7)

    @pytest.mark.parametrize("section, cls", [
        ("predictor", PredictorConfig), ("skipper", SkipConfig),
    ])
    def test_policy_keys_are_the_dataclass_fields_in_order(self, section, cls):
        # manifests echo keys in SCHEMA order, and a deleted field leaves no key
        assert list(SCHEMA[section]) == [f.name for f in dataclasses.fields(cls)]

    def test_random_grouping_inherits_workload_seed(self):
        cfg = _resolve(
            workload={"seed": 42},
            predictor={"kind": "random-grouping"},
        )
        assert cfg.predictor.rng_seed == 42

    def test_explicit_rng_seed_wins(self):
        cfg = _resolve(
            workload={"seed": 42},
            predictor={"kind": "random-grouping", "rng_seed": 5},
        )
        assert cfg.predictor.rng_seed == 5


class TestValidation:
    def test_synthetic_requires_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            _resolve()

    def test_trace_requires_path(self):
        with pytest.raises(ConfigError, match="trace"):
            _resolve(workload={"kind": "trace"})

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="warmup_steps"):
            _resolve(workload={"seed": 1}, skipper={"warmup_steps": 4})

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError):
            _resolve(workload={"seed": 1}, plotting={"style": "dark"})

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="n_tokens"):
            _resolve(workload={"seed": 1, "n_tokens": "many"})

    def test_bad_float_rejects_nan(self):
        with pytest.raises(ConfigError):
            _resolve(workload={"seed": 1}, skipper={"eta": "nan"})

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            _resolve(workload={"seed": 1}, skipper={"enforce_streak_cap": "maybe"})

    def test_enum_values_validated(self):
        with pytest.raises(ConfigError, match="preset"):
            _resolve(workload={"seed": 1, "preset": "wavy"})
        with pytest.raises(ConfigError, match="kind"):
            _resolve(workload={"seed": 1}, predictor={"kind": "psychic"})

    def test_inf_eta_accepted(self):
        cfg = _resolve(workload={"seed": 1}, skipper={"eta": "inf"})
        assert cfg.values["skipper"]["eta"] == float("inf")

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigError, match="invalid scheduler parameters: steps must be"):
            _resolve(workload={"seed": 1}, scheduler={"steps": -5})

    @pytest.mark.parametrize(
        "file_kind, key, value",
        [("synthetic", "trace_path", "x.wct"), ("trace", "preset", "smooth"),
         ("trace", "n_tokens", "16")],
    )
    def test_a_key_the_file_s_kind_does_not_read_is_an_error(self, file_kind, key, value):
        with pytest.raises(ConfigError) as exc:
            merge({"workload": {"kind": file_kind}}, {"workload": {key: value}})
        assert str(exc.value) == (
            f"workload.{key} is set, but workload.kind = {file_kind} does not read it"
        )

    def test_an_empty_unread_key_is_unset(self):
        # a synthetic manifest written while every manifest echoed trace_path
        cfg = resolve({"workload": {"seed": "1", "trace_path": ""}}, {})
        assert cfg.values == _resolve(workload={"seed": 1}).values

    def test_merge_parses_without_the_run_checks(self):
        assert merge()["workload"]["seed"] is None
        with pytest.raises(ConfigError, match="n_tokens"):
            merge(None, {"workload": {"n_tokens": "many"}})


class TestKindKeys:
    def test_every_workload_key_is_read_by_some_kind(self):
        read = {key for keys in _KIND_KEYS.values() for key in keys}
        assert read == set(SCHEMA["workload"]) - {"kind"}

    def test_synthetic_spec_fields_are_the_synthetic_keys(self):
        keys = {"fractions" if key.endswith("_fraction") else key
                for key in _KIND_KEYS["synthetic"]}
        assert {field.name for field in dataclasses.fields(SyntheticSpec)} == keys


class TestFilePrecedence:
    def test_flags_beat_file_beat_defaults(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[workload]\nseed = 3\nn_tokens = 32\n[skipper]\neta = 0.5\n",
            encoding="utf-8",
        )
        raw = read_config_file(ini)
        cfg = resolve(raw, {"skipper": {"eta": "0.1"}})
        assert cfg.values["workload"]["seed"] == 3         # from file
        assert cfg.values["workload"]["n_tokens"] == 32    # from file
        assert cfg.values["skipper"]["eta"] == 0.1         # flag wins
        assert cfg.values["predictor"]["n_max"] == 6       # default

    def test_unknown_file_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[workload]\nseeed = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="seeed"):
            read_config_file(ini)

    def test_meta_section_ignored_on_read(self, tmp_path):
        ini = tmp_path / "manifest.ini"
        ini.write_text(
            "[meta]\nversion = 0.0.1\ncommand = run\n[workload]\nseed = 9\n",
            encoding="utf-8",
        )
        raw = read_config_file(ini)
        assert "meta" not in raw
        assert raw["workload"]["seed"] == "9"


class TestEcho:
    def test_echo_round_trips_through_parser(self, tmp_path):
        cfg = _resolve(
            workload={"seed": 11, "n_tokens": 48},
            skipper={"eta": 0.3},
        )
        text = echo_config(cfg.values)
        path = tmp_path / "echo.ini"
        path.write_text(text, encoding="utf-8")
        again = resolve(read_config_file(path), {})
        assert again.values == cfg.values

    @pytest.mark.parametrize(
        "workload, keys",
        [({"seed": 1}, [key for key in SCHEMA["workload"] if key != "trace_path"]),
         ({"kind": "trace", "trace_path": "t.wct"}, ["kind", "seed", "trace_path"])],
    )
    def test_echo_writes_the_keys_the_kind_reads(self, workload, keys):
        text = echo_config(_resolve(workload=workload).values)
        section = text.split("[workload]\n", 1)[1].split("\n\n", 1)[0]
        assert [line.split(" = ")[0] for line in section.splitlines()] == keys

    def test_echo_is_deterministic(self):
        a = _resolve(workload={"seed": 1})
        b = _resolve(workload={"seed": 1})
        assert echo_config(a.values) == echo_config(b.values)

    def test_float_formatting_survives_round_trip(self):
        # 17 significant digits reproduce any float64 exactly
        val = 0.1 + 0.2
        assert float(format_value(val)) == val
        assert format_value(True) == "true"
        assert format_value(None) == ""


# a valid value other than the default for each sweep axis
_CELL_VALUE = {"eta": "0.5", "p_stable": "0.25", "p_chaotic": "0.9", "n_max": "4",
               "predictor": "random-grouping", "skipper": "fixed-interval", "interval": "3"}


class TestSweepConfig:
    def test_axes_parsed_in_canonical_order(self):
        cfg = _resolve(
            workload={"seed": 1},
            sweep={"eta": "0.1, 0.2", "interval": "2,4", "seeds": "1,2,3"},
        )
        axes = sweep_axes(cfg.values)
        assert list(axes.keys()) == ["eta", "interval"]
        assert axes["eta"] == ["0.1", "0.2"]
        assert sweep_seeds(cfg.values) == [1, 2, 3]

    def test_axis_table_is_the_sweep_schema(self):
        assert SWEEP_AXES == tuple(_AXIS_TARGET)
        assert list(SCHEMA["sweep"]) == [*SWEEP_AXES, "seeds"]
        assert all(SCHEMA["sweep"][name] == ("str", "") for name in SCHEMA["sweep"])

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_every_axis_sets_a_policy_key(self, axis):
        section, key = _AXIS_TARGET[axis]
        assert section in ("predictor", "skipper"), (
            f"sweep axis {axis!r} sets {section}.{key}, but a sweep builds each seed's "
            "workload and no-cache reference once, from the base config, and scores "
            "every cell of the seed against it: this axis's cells would be scored "
            "against a reference they did not run on"
        )

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_axis_value_reaches_its_schema_key_with_its_type(self, axis):
        section, key = _AXIS_TARGET[axis]
        default = SCHEMA[section][key][1]
        text = format_value(default)
        assert sweep_axes(merge(None, {"sweep": {axis: text}})) == {axis: [text]}
        got = sweep_cell(_resolve(workload={"seed": 1}), {axis: text}).values[section][key]
        assert got == default and type(got) is type(default)
        with pytest.raises(ConfigError, match=f"sweep.{axis}"):
            sweep_axes(merge(None, {"sweep": {axis: "banana"}}))

    @pytest.mark.parametrize("workload", [
        {"seed": "4"}, {"kind": "trace", "trace_path": "t.wct", "seed": "4"},
    ], ids=["synthetic", "trace"])
    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_a_cell_is_the_resolve_of_its_overrides(self, workload, axis):
        # a cell rebuilds only its policy, and gets what resolving all of its
        # overrides would: the values and every built part
        text = _CELL_VALUE[axis]
        base = {"workload": workload, "sweep": {axis: text, "seeds": "4"}}
        section, key = _AXIS_TARGET[axis]
        cell = sweep_cell(resolve(None, base), {axis: text})
        assert cell == resolve(None, {**base, section: {key: text}})
        assert cell.values[section][key] != SCHEMA[section][key][1]

    def test_bad_axis_value_is_config_error(self):
        cfg = _resolve(
            workload={"seed": 1},
            sweep={"eta": "0.1, soup", "seeds": "1"},
        )
        with pytest.raises(ConfigError):
            sweep_axes(cfg.values)
