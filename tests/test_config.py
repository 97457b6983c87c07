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
    apply_axis_override,
    echo_config,
    format_value,
    merge,
    read_config_file,
    resolve,
    sweep_axes,
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

    def test_typed_views_construct(self):
        cfg = _resolve(workload={"seed": 7})
        spec = cfg.synthetic_spec()
        assert spec.seed == 7
        pc = cfg.predictor_config()
        assert pc.kind is PredictorKind.CHTP
        sc = cfg.skip_config()
        assert sc.kind is SkipKind.CAS

    def test_defaults_are_the_dataclasses_own(self):
        cfg = _resolve(workload={"seed": 7})
        assert cfg.predictor_config() == PredictorConfig()
        assert cfg.skip_config() == SkipConfig()
        assert cfg.synthetic_spec() == SyntheticSpec(seed=7)

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
        assert cfg.predictor_config().rng_seed == 42

    def test_explicit_rng_seed_wins(self):
        cfg = _resolve(
            workload={"seed": 42},
            predictor={"kind": "random-grouping", "rng_seed": 5},
        )
        assert cfg.predictor_config().rng_seed == 5


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
        assert merge().values["workload"]["seed"] is None
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
        text = echo_config(cfg)
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
        text = echo_config(_resolve(workload=workload))
        section = text.split("[workload]\n", 1)[1].split("\n\n", 1)[0]
        assert [line.split(" = ")[0] for line in section.splitlines()] == keys

    def test_echo_is_deterministic(self):
        a = _resolve(workload={"seed": 1})
        b = _resolve(workload={"seed": 1})
        assert echo_config(a) == echo_config(b)

    def test_float_formatting_survives_round_trip(self):
        # 17 significant digits reproduce any float64 exactly
        val = 0.1 + 0.2
        assert float(format_value(val)) == val
        assert format_value(True) == "true"
        assert format_value(None) == ""


class TestSweepConfig:
    def test_axes_parsed_in_canonical_order(self):
        cfg = _resolve(
            workload={"seed": 1},
            sweep={"eta": "0.1, 0.2", "interval": "2,4", "seeds": "1,2,3"},
        )
        axes = sweep_axes(cfg)
        assert list(axes.keys()) == ["eta", "interval"]
        assert axes["eta"] == ["0.1", "0.2"]
        assert sweep_seeds(cfg) == [1, 2, 3]

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
        assert sweep_axes(_resolve(workload={"seed": 1}, sweep={axis: text})) == {axis: [text]}
        overrides = {"workload": {"seed": "1"}}
        apply_axis_override(overrides, axis, text)
        got = resolve(None, overrides).values[section][key]
        assert got == default and type(got) is type(default)
        with pytest.raises(ConfigError, match=f"sweep.{axis}"):
            sweep_axes(_resolve(workload={"seed": 1}, sweep={axis: "banana"}))

    def test_axis_override_targets_right_section(self):
        overrides: dict = {}
        apply_axis_override(overrides, "eta", "0.25")
        assert overrides == {"skipper": {"eta": "0.25"}}
        apply_axis_override(overrides, "predictor", "uniform-linear")
        assert overrides["predictor"]["kind"] == "uniform-linear"

    def test_bad_axis_value_is_config_error(self):
        cfg = _resolve(
            workload={"seed": 1},
            sweep={"eta": "0.1, soup", "seeds": "1"},
        )
        with pytest.raises(ConfigError):
            sweep_axes(cfg)
