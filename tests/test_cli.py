import configparser
import gc
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from worldcache import (
    EulerScheduler, SkipKind, TraceBackbone, cli, kernels, read_trace, run, skipper,
    write_trace,
)
from worldcache.cli import (
    METRIC_COLUMNS,
    STEP_COLUMNS,
    _FLAGS,
    _collect_overrides,
    build_parser,
    main,
)
from worldcache.config import SCHEMA, format_value, resolve

FAST = ["--n-tokens", "16", "--dims", "4", "--steps", "12"]


def _run_args(tmp_path, *extra, run_id="rid"):
    args = ["run", "--seed", "7", "--out", str(tmp_path), *FAST]
    if run_id is not None:
        args += ["--run-id", run_id]
    args += list(extra)
    return args


def _written(argv, out):
    """{name: bytes} of what main(argv) writes to out, which it then empties,
    so a second call with the same output directory has the same manifest."""
    assert main([*argv, "--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    return files


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestRunCommand:
    def test_writes_three_files_and_exits_zero(self, tmp_path, capsys):
        assert main(_run_args(tmp_path)) == 0
        for suffix in (".steps.csv", ".metrics.csv", ".manifest.ini"):
            assert (tmp_path / f"rid{suffix}").exists()
        out = capsys.readouterr().out
        assert "rid: steps=12" in out
        assert out.count("wrote ") == 3

    def test_auto_run_id_is_config_digest(self, tmp_path, capsys):
        assert main(_run_args(tmp_path, run_id=None)) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert re.match(r"^run-[0-9a-f]{12}: ", line)

    def test_steps_csv_schema(self, tmp_path):
        main(_run_args(tmp_path))
        header, rows = _read_rows(tmp_path / "rid.steps.csv")
        assert header == ",".join(STEP_COLUMNS)
        assert len(rows) == 12
        assert [r[0] for r in rows] == [str(i) for i in range(12)]
        decisions = [r[2] for r in rows]
        assert set(decisions) <= {"FULL", "CACHE"}
        assert decisions[:3] == ["FULL", "FULL", "FULL"]  # warmup

    def test_metrics_csv_schema(self, tmp_path):
        main(_run_args(tmp_path))
        header, rows = _read_rows(tmp_path / "rid.metrics.csv")
        assert header == ",".join(METRIC_COLUMNS)
        assert len(rows) == 1
        assert rows[0][0] == "rid"
        assert rows[0][1] == "12"
        assert int(rows[0][2]) + int(rows[0][3]) == 12

    def test_zero_budget_never_caches(self, tmp_path):
        main(_run_args(tmp_path, "--eta", "0"))
        _, steps = _read_rows(tmp_path / "rid.steps.csv")
        assert all(r[2] == "FULL" for r in steps)
        assert all(r[6] == "0" for r in steps)  # rel_err exact zero
        _, metrics = _read_rows(tmp_path / "rid.metrics.csv")
        assert metrics[0][4] == "1"  # full_ratio
        assert metrics[0][6] == "0"  # final_rel_err

    def test_extreme_amplitude_gives_finite_errors(self, tmp_path):
        # squares of 1e200 entries overflow; the error norms must not
        assert main(_run_args(tmp_path, "--seed", "1", "--amplitude", "1e200")) == 0
        _, steps = _read_rows(tmp_path / "rid.steps.csv")
        _, metrics = _read_rows(tmp_path / "rid.metrics.csv")
        values = [r[STEP_COLUMNS.index("rel_err")] for r in steps]
        values += [metrics[0][METRIC_COLUMNS.index(c)]
                   for c in ("final_rel_err", "mean_rel_err")]
        assert all(math.isfinite(float(v)) for v in values)

    def test_errors_at_the_top_of_the_float_range(self, tmp_path, capsys):
        # at 1e307 the Frobenius norm of the difference and the linear group's
        # sum of row errors pass the float range; the errors must not
        args = ["run", "--seed", "1", "--n-tokens", "64", "--dims", "8",
                "--out", str(tmp_path), "--run-id", "rid"]
        assert main([*args, "--amplitude", "1e306"]) == 0
        assert "final_rel_err=2.133e+01" in capsys.readouterr().out
        assert main([*args, "--amplitude", "1e307"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "final_rel_err=2.133e+01" in captured.out
        _, steps = _read_rows(tmp_path / "rid.steps.csv")
        assert not any(math.isinf(float(v)) for row in steps for v in row[4:])

    def test_overflowing_update_fails_with_a_typed_error(self, tmp_path, capsys):
        args = ["run", "--seed", "1", "--n-tokens", "64", "--dims", "8",
                "--amplitude", "1e308", "--out", str(tmp_path / "x"), "--run-id", "rid"]
        assert main(args) == 2
        assert capsys.readouterr().err == \
            "error: token matrix contains non-finite values\n"
        assert list(tmp_path.iterdir()) == []  # the output directory is not made

    @pytest.mark.parametrize("t_max", ["1e200", "1.7e308"])
    @pytest.mark.parametrize("preset", ["mixed", "smooth", "turnpoint"])
    def test_grid_values_past_a_preset_s_range_fail_with_a_typed_error(
        self, tmp_path, capsys, preset, t_max
    ):
        # the mixed preset squares t, which passes the float range above 1.3e154
        args = ["run", "--seed", "1", "--preset", preset, "--t-max", t_max,
                "--steps", "4", "--out", str(tmp_path), "--run-id", "rid"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert capsys.readouterr().err == \
            "error: token matrix contains non-finite values\n"

    @pytest.mark.parametrize(
        "frequency, code, err",
        [("1e200", 0, ""), ("1.7e308", 2, "error: token matrix contains non-finite values\n")],
    )
    def test_frequency_past_the_float_range_ends_without_a_traceback(
        self, tmp_path, capsys, frequency, code, err
    ):
        # the mixed preset squares the bend frequency, which passes the float
        # range above about 1e153; the bend then has amplitude 0
        args = ["run", "--seed", "1", "--frequency", frequency, "--steps", "4",
                "--out", str(tmp_path), "--run-id", "rid"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == code
        assert capsys.readouterr().err == err

    def test_manifest_rerun_reproduces_outputs_byte_for_byte(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        assert main(_run_args(d1, "--eta", "0.25")) == 0
        manifest = d1 / "rid.manifest.ini"
        assert main(["run", "--config", str(manifest), "--out", str(d2)]) == 0
        for name in ("rid.steps.csv", "rid.metrics.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_manifest_carries_meta_and_resolved_values(self, tmp_path):
        main(_run_args(tmp_path, "--eta", "0.31"))
        text = (tmp_path / "rid.manifest.ini").read_text(encoding="utf-8")
        assert "[meta]" in text
        assert "command = run" in text
        assert "backend = " in text
        assert "eta = 0.31" in text
        assert "run_id = rid" in text

    @pytest.mark.parametrize("section, line", [
        ("predictor", "horizon_mode = timestep-delta"),
        ("skipper", "warmup_fulls = 3"),
        ("output", "c_cache = 0.01"),
    ], ids=["horizon_mode", "warmup_fulls", "c_cache"])
    def test_a_manifest_with_a_removed_key_is_a_usage_error(
        self, tmp_path, capsys, section, line
    ):
        assert main(_run_args(tmp_path / "a")) == 0
        manifest = tmp_path / "a" / "rid.manifest.ini"
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(
            text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"), encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["run", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"config error: unknown key {section}.{key} in {manifest}\n"
        )
        assert not (tmp_path / "b").exists()


class TestExitCodes:
    def test_unknown_override_key_is_usage_error(self, tmp_path, capsys):
        code = main(_run_args(tmp_path, "--set", "skipper.warmup_steps=4"))
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_section_is_usage_error(self, tmp_path):
        assert main(_run_args(tmp_path, "--set", "magic.knob=1")) == 1

    def test_malformed_set_assignment(self, tmp_path, capsys):
        assert main(_run_args(tmp_path, "--set", "skipper.eta")) == 1
        assert "SECTION.KEY=VALUE" in capsys.readouterr().err

    def test_unparseable_value_is_usage_error(self, tmp_path, capsys):
        assert main(_run_args(tmp_path, "--eta", "banana")) == 1
        assert "eta" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["run", "--seed", "-1"],
             "invalid workload parameters: seed must be >= 0, got -1"),
            (["record", "t.wct", "--seed", "-2"],
             "invalid workload parameters: seed must be >= 0, got -2"),
            (["run", "--seed", "1", "--predictor", "random-grouping", "--rng-seed", "-3"],
             "invalid policy parameters: rng_seed must be >= 0, got -3"),
            # with no seed to fall back on, random-grouping has no permutation
            (["replay", "t.wct", "--predictor", "random-grouping"],
             "invalid policy parameters: random-grouping requires rng_seed"),
            (["run", "--seed", "1", "--p-stable", "1.5"],
             "invalid policy parameters: percentiles must lie in [0, 1], "
             "got p_stable=1.5, p_chaotic=0.7"),
            (["run", "--seed", "1", "--p-stable", "0.8", "--p-chaotic", "0.5"],
             "invalid policy parameters: p_stable must not exceed p_chaotic, got 0.8 > 0.5"),
            (["run", "--seed", "1", "--t-max", "0"],
             "invalid scheduler parameters: scheduler grid must be strictly decreasing: "
             "0.0 after 0.0"),
            (["run", "--seed", "1", "--t-max", "-5"],
             "invalid scheduler parameters: scheduler grid must be strictly decreasing: "
             "-4.9 after -5.0"),
            (["run", "--seed", "1", "--t-max", "inf"],
             "invalid scheduler parameters: t_max must be finite, got inf"),
            (["run", "--seed", "1", "--t-max", "1e-322"],
             "invalid scheduler parameters: scheduler grid must be strictly decreasing: "
             "1e-322 after 1e-322"),
            (["record", "t.wct", "--seed", "1", "--t-max", "0"],
             "invalid scheduler parameters: scheduler grid must be strictly decreasing: "
             "0.0 after 0.0"),
            # uniform_grid is the one home of the step-count rule
            (["run", "--seed", "1", "--steps", "-1"],
             "invalid scheduler parameters: steps must be >= 0, got -1"),
            # a skip kind the harness does not provide is an unknown value
            (["run", "--seed", "1", "--skipper", "difference-guided"],
             "bad value for skipper.kind: 'difference-guided' "
             "(expected one of cas, fixed-interval, input-guided)"),
            (["sweep", "--seed", "1", "--set", "sweep.skipper=cas,norm-guided"],
             "bad value for sweep.skipper: 'norm-guided' "
             "(expected one of cas, fixed-interval, input-guided)"),
            # a trace holds at least one step; record says so before any work
            (["record", "t.wct", "--seed", "1", "--steps", "0"],
             "record requires scheduler.steps >= 1"),
            # eta is the one budget: tau is gone as a flag, a sweep axis and a key
            (["run", "--seed", "1", "--tau", "0.1"], "unrecognized arguments: --tau 0.1"),
            (["sweep", "--seed", "1", "--set", "sweep.tau=0.1,0.2"],
             "unknown key sweep.tau in overrides"),
            (["run", "--seed", "1", "--config"], "unknown key skipper.tau in {}"),
            # warmup is the curvature's three FULL outputs, and a cached
            # step's modelled cost a constant: neither is a flag
            (["run", "--seed", "1", "--warmup-fulls", "2"],
             "unrecognized arguments: --warmup-fulls 2"),
            (["run", "--seed", "1", "--c-cache", "0.5"],
             "unrecognized arguments: --c-cache 0.5"),
            # a workload key that the kind does not read is set in vain
            (["run", "--seed", "1", "--set", "workload.trace_path=x.wct"],
             "workload.trace_path is set, but workload.kind = synthetic does not read it"),
            (["replay", "t.wct", "--preset", "smooth"],
             "workload.preset is set, but workload.kind = trace does not read it"),
            # a one-run command reads no [sweep] key, which would change only its run id
            (["run", "--seed", "1", "--set", "sweep.eta=0.1,0.5"],
             "sweep.eta is set, but run does not read it"),
            (["replay", "t.wct", "--set", "sweep.seeds=3"],
             "sweep.seeds is set, but replay does not read it"),
            (["record", "t.wct", "--seed", "1", "--set", "sweep.skipper=cas"],
             "sweep.skipper is set, but record does not read it"),
        ],
        ids=["run-seed", "record-seed", "rng-seed", "random-grouping-no-rng-seed",
             "p-stable-range", "p-stable-above-p-chaotic", "run-t-max-0", "run-t-max-negative",
             "run-t-max-inf", "run-t-max-subnormal", "record-t-max-0", "run-steps-negative",
             "removed-skipper",
             "removed-sweep-skipper", "record-no-steps", "removed-tau-flag",
             "removed-tau-axis", "removed-tau-key", "removed-warmup-flag",
             "removed-c-cache-flag", "synthetic-trace-path",
             "trace-preset", "run-sweep-axis", "replay-sweep-seeds", "record-sweep-axis"],
    )
    def test_a_negative_seed_is_a_usage_error(
        self, tmp_path, tmp_path_factory, capsys, argv, err
    ):
        if argv[-1] == "--config":  # a manifest that still sets skipper.tau
            manifest = tmp_path_factory.mktemp("old") / "old.manifest.ini"
            manifest.write_text("[skipper]\ntau = 0.1\n", encoding="utf-8")
            argv, err = [*argv, str(manifest)], err.format(manifest)
        if argv[0] == "record":
            argv = ["record", str(tmp_path / argv[1]), *argv[2:]]
        else:
            argv = [*argv, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_trace_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.wct")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_corrupt_trace_reports_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.wct"
        bad.write_bytes(b"NOTATRCE" + b"\x00" * 40)
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "magic" in err

    @pytest.mark.parametrize("predictor, score", [("uniform-reuse", "nan"), ("chtp", "inf")])
    def test_a_non_finite_drift_score_is_one_typed_error(
        self, tmp_path, capsys, predictor, score
    ):
        # Token 0 moves over the first interval and then stops, so under
        # eps = 0 its newest velocity of 0 gives it an inf kappa. Reuse
        # forecasts no displacement for it (inf * 0), chtp a nonzero one.
        outputs = np.zeros((12, 4, 2), dtype=np.float32)
        outputs[0, 0] = [1.0, 0.0]
        grid = [float(11 - i) for i in range(12)]
        write_trace(tmp_path / "stop.wct", TraceBackbone(grid, outputs))
        args = ["replay", str(tmp_path / "stop.wct"), "--predictor", predictor,
                "--set", "predictor.eps=0", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert capsys.readouterr().err == \
            f"error: drift increment must be finite and >= 0, got {score}\n"

    def test_truncated_trace_on_run_is_runtime_error(self, tmp_path, capsys):
        trace = tmp_path / "t"
        assert main(["record", str(trace), "--seed", "3", *FAST]) == 0
        capsys.readouterr()
        raw = (tmp_path / "t.wct").read_bytes()
        (tmp_path / "short.wct").write_bytes(raw[:-10])
        code = main(["replay", str(tmp_path / "short.wct"), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_a_trace_cut_before_its_flag_byte_fails_replay(self, tmp_path, capsys):
        assert main(["record", str(tmp_path / "t.wct"), "--seed", "3", *FAST]) == 0
        capsys.readouterr()
        raw = (tmp_path / "t.wct").read_bytes()
        (tmp_path / "cut.wct").write_bytes(raw[:-1])
        out = tmp_path / "out"
        assert main(["replay", str(tmp_path / "cut.wct"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: truncated modality flag: need 1 byte (byte offset {len(raw) - 1})\n"
        )
        assert not out.exists()


class TestRecordValidateReplay:
    def test_record_appends_extension_and_writes_manifest(self, tmp_path, capsys):
        code = main(["record", str(tmp_path / "demo"), "--seed", "5", *FAST])
        assert code == 0
        assert (tmp_path / "demo.wct").exists()
        assert (tmp_path / "demo.manifest.ini").exists()
        out = capsys.readouterr().out
        assert "recorded" in out and "12 steps" in out

    def test_record_prints_its_summary_line(self, tmp_path, capsys):
        # the line comes from the spec and the grid, not from re-reading the file
        trace = tmp_path / "demo.wct"
        assert main(["record", str(trace), "--seed", "1", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            f"recorded {trace}: 50 steps, 96x8 tokens, t in [1, 50]\n"
            f"wrote {tmp_path / 'demo.manifest.ini'}\n"
        )

    def test_validate_prints_summary(self, tmp_path, capsys):
        main(["record", str(tmp_path / "demo"), "--seed", "5", *FAST])
        capsys.readouterr()
        assert main(["validate", str(tmp_path / "demo.wct")]) == 0
        out = capsys.readouterr().out
        assert "n_tokens: 16" in out
        assert "dims: 4" in out
        assert "n_steps: 12" in out

    def test_replay_runs_policy_against_trace(self, tmp_path):
        main(["record", str(tmp_path / "demo"), "--seed", "5", *FAST])
        out_dir = tmp_path / "out"
        code = main(["replay", str(tmp_path / "demo.wct"),
                     "--skipper", "fixed-interval", "--interval", "1",
                     "--out", str(out_dir), "--run-id", "rep"])
        assert code == 0
        _, steps = _read_rows(out_dir / "rep.steps.csv")
        decisions = [r[2] for r in steps]
        # warmup of 3, then a strict cache/full alternation
        assert decisions.count("FULL") == 3 + (12 - 3 - 1) // 2
        assert "CACHE" in decisions
        _, metrics = _read_rows(out_dir / "rep.metrics.csv")
        assert int(metrics[0][2]) == decisions.count("FULL")

    def test_a_replay_manifest_leaves_out_the_scheduler_it_ignores(self, tmp_path):
        # a trace replays its own grid: --steps changes neither the manifest
        # nor the default run id, and the manifest reproduces the replay
        main(["record", str(tmp_path / "t"), "--seed", "5", *FAST])
        out_dir, written = tmp_path / "out", []
        for steps in ("12", "99"):
            assert main(["replay", str(tmp_path / "t.wct"), "--steps", steps,
                         "--out", str(out_dir)]) == 0
            written.append({p.name: p.read_bytes() for p in out_dir.glob("*.manifest.ini")})
        assert len(written[0]) == 1 and written[1] == written[0]
        (name, text), = written[0].items()
        assert b"[scheduler]" not in text and b"steps" not in text
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read_string(text.decode("utf-8"))
        assert manifest["meta"]["command"] == "replay"
        assert list(manifest["workload"]) == ["kind", "seed", "trace_path"]
        again = tmp_path / "again"
        assert main(["replay", str(tmp_path / "t.wct"), "--config", str(out_dir / name),
                     "--out", str(again)]) == 0
        steps_csv = name.replace(".manifest.ini", ".steps.csv")
        assert (again / steps_csv).read_bytes() == (out_dir / steps_csv).read_bytes()

    @pytest.mark.parametrize("source", ["set", "config"])
    @pytest.mark.parametrize(
        "key, value",
        [("preset", "smooth"), ("n_tokens", "16"), ("dims", "4"), ("stable_fraction", "0.5"),
         ("linear_fraction", "0.25"), ("chaotic_fraction", "0.25"), ("turn_step", "3"),
         ("amplitude", "7"), ("frequency", "0.5"), ("noise_sigma", "0.1"),
         ("coupling", "0.5")],
    )
    def test_a_synthetic_key_under_replay_is_a_usage_error(
        self, tmp_path, capsys, key, value, source
    ):
        argv = ["replay", str(tmp_path / "t.wct"), "--seed", "1", "--out", str(tmp_path / "out")]
        if source == "set":
            argv += ["--set", f"workload.{key}={value}"]
        else:
            config = tmp_path / "c.ini"
            config.write_text(f"[workload]\n{key} = {value}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: workload.{key} is set, but workload.kind = trace does not read it\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ([] if source == "set" else ["c.ini"])

    @pytest.mark.parametrize("command", ["replay", "sweep"])
    def test_a_negative_steps_that_a_trace_ignores_is_accepted(self, tmp_path, command):
        trace = tmp_path / "t.wct"
        assert main(["record", str(trace), "--seed", "5", *FAST]) == 0
        argv = ["replay", str(trace)]
        if command == "sweep":
            argv = ["sweep", "--set", "workload.kind=trace", "--set",
                    f"workload.trace_path={trace}", "--set", "sweep.eta=0.1,0.3",
                    "--seeds", "5"]
        plain = _written(argv, tmp_path / "out")
        assert len(plain) == (3 if command == "replay" else 2)
        assert _written([*argv, "--steps", "-1"], tmp_path / "out") == plain

    def test_a_trace_built_from_records_blocks_replays_as_its_file(
        self, tmp_path, monkeypatch
    ):
        written, real = [], cli.write_trace

        def kept(path, trace):
            written.append(trace)
            real(path, trace)

        monkeypatch.setattr(cli, "write_trace", kept)
        assert main(["record", str(tmp_path / "t.wct"), "--seed", "5", *FAST]) == 0
        (built,), read = written, read_trace(tmp_path / "t.wct")
        assert built.timesteps == read.timesteps
        results = []
        for replay in (built, read):
            grid, z = replay.replay_grid(), replay.initial_latent()
            assert all(replay.evaluate(z, t) is replay.outputs[i]
                       for i, t in enumerate(grid[:-1]))
            results.append(run(replay, EulerScheduler(grid), replay.initial_latent(),
                               oracle_outputs=replay.outputs.references))
        a, b = results
        assert a.cache_count and repr(a.records) == repr(b.records)
        assert a.final_latent.data.tobytes() == b.final_latent.data.tobytes()

    def test_record_past_the_float32_range_writes_no_file(self, tmp_path, capsys):
        args = ["record", str(tmp_path / "rec" / "t.wct"), "--n-tokens", "8",
                "--dims", "4", "--steps", "6", "--seed", "1", "--amplitude", "1e40"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: output block 0 does not fit in float32: max |value| is 3.10827e+39\n"
        )
        assert list(tmp_path.iterdir()) == []  # nor is the trace's directory

    def test_record_requires_synthetic_workload(self, tmp_path, capsys):
        main(["record", str(tmp_path / "demo"), "--seed", "5", *FAST])
        capsys.readouterr()
        code = main(["record", str(tmp_path / "again"),
                     "--set", "workload.kind=trace",
                     "--set", f"workload.trace_path={tmp_path / 'demo.wct'}"])
        assert code == 1
        assert "synthetic" in capsys.readouterr().err


class TestBlasThreads:
    def test_outputs_do_not_follow_the_blas_thread_count(self, tmp_path):
        # BLAS's dot sums in an order that follows its thread count, which
        # moved the error columns' last bits; kernels.fro_norm sums through einsum
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        workload = ["--seed", "0", "--n-tokens", "1024", "--dims", "32"]
        csvs = []
        for threads in ("1", "2"):
            out, env = tmp_path / threads, {**os.environ, "PYTHONPATH": path,
                                            "OPENBLAS_NUM_THREADS": threads}
            for argv in (["sweep", "--set", "sweep.eta=0.05,0.2", "--seeds", "0"], ["run"]):
                subprocess.run([sys.executable, "-m", "worldcache.cli", *argv, *workload,
                                "--out", str(out), "--run-id", argv[0]],
                               env=env, check=True, capture_output=True, timeout=300)
            csvs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert len(csvs[0]) == 3 and csvs[1] == csvs[0]


class TestSweepCommand:
    def test_grid_rows_and_schema(self, tmp_path, capsys):
        code = main(["sweep", "--seed", "1", "--set", "sweep.eta=0.1,0.3",
                     "--seeds", "1,2", "--out", str(tmp_path),
                     "--run-id", "sw", *FAST])
        assert code == 0
        header, rows = _read_rows(tmp_path / "sw.sweep.csv")
        assert header == ",".join(["eta", "seed"] + list(METRIC_COLUMNS[1:]))
        assert [(r[0], r[1]) for r in rows] == [
            ("0.1", "1"), ("0.1", "2"), ("0.3", "1"), ("0.3", "2"),
        ]
        assert all(r[2] == "12" for r in rows)  # steps column
        assert (tmp_path / "sw.manifest.ini").exists()
        assert "4/4 cells ok" in capsys.readouterr().out

    def test_config_file_and_flags_are_read_once(self, tmp_path, monkeypatch):
        ini = tmp_path / "base.ini"
        ini.write_text("[skipper]\neta = 0.3\n", encoding="utf-8")
        reads, read_file, collect = [], cli.read_config_file, cli._collect_overrides
        monkeypatch.setattr(
            cli, "read_config_file", lambda path: reads.append("file") or read_file(path)
        )
        monkeypatch.setattr(
            cli, "_collect_overrides", lambda args: reads.append("flags") or collect(args)
        )
        code = main(["sweep", "--config", str(ini), "--seed", "1",
                     "--set", "sweep.p_chaotic=0.6,0.8", "--seeds", "1",
                     "--out", str(tmp_path), "--run-id", "sw", *FAST])
        assert code == 0
        assert reads == ["file", "flags"]

    def test_a_sweep_resolves_its_base_and_each_seed_once(self, tmp_path, monkeypatch):
        # a cell builds only its policy again, whatever the number of cells
        calls, real = [], cli.resolve
        monkeypatch.setattr(cli, "resolve", lambda *a: calls.append(a) or real(*a))
        code = main(["sweep", "--set", "sweep.eta=0.1,0.3", "--set", "sweep.n_max=3,6",
                     "--seeds", "1,2", "--out", str(tmp_path), "--run-id", "sw", *FAST])
        assert code == 0
        assert len(calls) == 1 + 2

    def test_failed_cells_are_reported_not_fatal(self, tmp_path, capsys):
        code = main(["sweep", "--seed", "1", "--set", "sweep.eta=0.2,-1",
                     "--seeds", "1", "--out", str(tmp_path),
                     "--run-id", "sw", *FAST])
        assert code == 2
        captured = capsys.readouterr()
        assert "1/2 cells ok" in captured.out
        assert "sweep cell failed" in captured.err
        _, rows = _read_rows(tmp_path / "sw.sweep.csv")
        assert len(rows) == 1

    def test_all_cells_failing_exits_2_with_header_only_csv(self, tmp_path, capsys):
        code = main(["sweep", "--seed", "1", "--set", "sweep.p_stable=0.9",
                     "--seeds", "1", "--steps", "10", "--out", str(tmp_path),
                     "--run-id", "sw"])
        assert code == 2
        captured = capsys.readouterr()
        assert "0/1 cells ok" in captured.out
        assert captured.err == (
            "sweep cell failed (p_stable=0.9, seed=1): ConfigError: invalid policy "
            "parameters: p_stable must not exceed p_chaotic, got 0.9 > 0.7\n"
        )
        header, rows = _read_rows(tmp_path / "sw.sweep.csv")
        assert header.startswith("p_stable,seed,")
        assert rows == []

    def test_sweep_without_axes_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--seed", "1", "--seeds", "1", "--out", str(tmp_path), *FAST])
        assert code == 1
        assert "axis" in capsys.readouterr().err

    def test_bad_jobs_value_is_usage_error(self, tmp_path):
        code = main(["sweep", "--seed", "1", "--set", "sweep.eta=0.2", "--seeds", "1",
                     "--jobs", "0", "--out", str(tmp_path), *FAST])
        assert code == 1

    @pytest.mark.parametrize("extra, err", [
        (["--seeds=-1,2"], "sweep.seeds must be >= 0, got '-1,2'"),
        (["--seeds=,"], "sweep.seeds lists no values"),
        (["--seeds=1", "--t-max", "0"], "invalid scheduler parameters: "
         "scheduler grid must be strictly decreasing: 0.0 after 0.0"),
    ], ids=["negative-seed", "no-seed", "t-max-0"])
    def test_negative_seed_is_usage_error_and_writes_nothing(
        self, tmp_path, capsys, extra, err
    ):
        out = tmp_path / "out"
        code = main(["sweep", "--seed", "1", "--set", "sweep.eta=0.1",
                     "--out", str(out), *FAST, *extra])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1", "3,1"])
    def test_a_sweep_without_a_seed_is_checked_at_its_first_sweep_seed(
        self, tmp_path, seeds
    ):
        # every cell takes its seed from sweep.seeds; the base config is
        # checked at the first, which the manifest echoes (and the run id hashes)
        argv = ["sweep", "--n-tokens", "16", "--dims", "4", "--steps", "8",
                "--set", "sweep.eta=0.1", "--seeds", seeds]
        first = seeds.split(",")[0]
        unseeded = _written(argv, tmp_path / "out")
        assert _written([*argv, "--seed", first], tmp_path / "out") == unseeded
        (manifest,) = [text for name, text in unseeded.items() if name.endswith(".ini")]
        assert f"\nseed = {first}\n".encode() in manifest

    @pytest.mark.parametrize("other", ["flag", "set", "config"])
    def test_a_sweep_ignores_any_other_seed(self, tmp_path, other):
        # no cell reads workload.seed: a seed other than the first sweep seed,
        # from --seed, --set or the config file, changes no byte and no run id
        argv = ["sweep", "--n-tokens", "16", "--dims", "4", "--steps", "8",
                "--set", "sweep.eta=0.1", "--seeds", "1"]
        config = tmp_path / "seed.ini"
        config.write_text("[workload]\nseed = 5\n", encoding="utf-8")
        extra = {"flag": ["--seed", "5"], "set": ["--set", "workload.seed=5"],
                 "config": ["--config", str(config)]}[other]
        assert _written([*argv, *extra], tmp_path / "out") == _written(argv, tmp_path / "out")

    def test_jobs_default_to_one_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("WORLDCACHE_JOBS", "3")
        assert build_parser().parse_args(["sweep"]).jobs == 1

    def test_manifest_rerun_reproduces_sweep(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--seed", "1", "--set", "sweep.eta=0.15,0.3", "--seeds", "2,3",
                "--run-id", "sw", *FAST]
        assert main(args + ["--out", str(d1)]) == 0
        manifest = d1 / "sw.manifest.ini"
        assert main(["sweep", "--config", str(manifest),
                     "--out", str(d2)]) == 0
        assert (d1 / "sw.sweep.csv").read_bytes() == \
            (d2 / "sw.sweep.csv").read_bytes()


def _count_oracles(monkeypatch):
    """Records, per oracle run, how many workloads of earlier oracle runs are
    still alive."""
    calls, workloads = [], []
    real = cli.oracle_run

    def counted(backbone, *args, **kwargs):
        gc.collect()
        calls.append(sum(w() is not None for w in workloads))
        workloads.append(weakref.ref(backbone))
        return real(backbone, *args, **kwargs)

    monkeypatch.setattr(cli, "oracle_run", counted)
    return calls


_GRID = ["--seed", "1", "--set", "sweep.eta=0.15,0.3", "--seeds", "2,3",
         "--run-id", "sw", *FAST]


def _capturing(results, fn):
    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    return wrapper


def _log_calls(monkeypatch, log):
    """Append "what seed pid" to log at each workload build and each cell."""
    def logged(what, fn):
        def wrapper(cfg, *args, **kwargs):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{what} {cfg.values['workload']['seed']} {os.getpid()}\n")
            return fn(cfg, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_reference", logged("reference", cli._reference))
    monkeypatch.setattr(cli, "_execute", logged("cell", cli._execute))
    return log


class TestSharedOracle:
    def test_one_oracle_per_seed(self, tmp_path, monkeypatch):
        calls = _count_oracles(monkeypatch)
        assert main(["sweep", *_GRID, "--out", str(tmp_path)]) == 0
        assert calls == [0, 0]  # the first seed's reference is gone by the second

    def test_each_sweep_computes_its_own_oracles(self, tmp_path, monkeypatch):
        calls = _count_oracles(monkeypatch)
        assert main(["sweep", *_GRID, "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep", *_GRID, "--out", str(tmp_path / "b")]) == 0
        assert len(calls) == 4
        assert (tmp_path / "a" / "sw.sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sw.sweep.csv").read_bytes()

    def test_parallel_csv_byte_identical_to_serial(self, tmp_path):
        for jobs in ("1", "2"):
            out = str(tmp_path / jobs)
            assert main(["sweep", *_GRID, "--jobs", jobs, "--out", out]) == 0
        assert (tmp_path / "1" / "sw.sweep.csv").read_bytes() == \
            (tmp_path / "2" / "sw.sweep.csv").read_bytes()

    def test_parallel_sweep_runs_each_seed_in_one_process(self, tmp_path, monkeypatch):
        log = _log_calls(monkeypatch, tmp_path / "calls.log")
        assert main(["sweep", *_GRID, "--jobs", "2", "--out", str(tmp_path / "2")]) == 0
        calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        for seed in ("2", "3"):
            pids = {pid for what, s, pid in calls if s == seed}
            assert len(pids) == 1 and pids != {str(os.getpid())}
            assert [what for what, s, _ in calls if s == seed] == \
                ["reference", "cell", "cell"]
        assert main(["sweep", *_GRID, "--jobs", "1", "--out", str(tmp_path / "1")]) == 0
        assert (tmp_path / "1" / "sw.sweep.csv").read_bytes() == \
            (tmp_path / "2" / "sw.sweep.csv").read_bytes()

    def test_parallel_sweep_of_one_seed_splits_its_cells(self, tmp_path, monkeypatch):
        # with fewer seeds than jobs the seed's cells are cut into jobs
        # contiguous runs, each building the workload once in its worker
        grid = ["--seed", "1", "--set", "sweep.eta=0.1,0.15,0.2,0.3", "--seeds", "2",
                "--run-id", "sw", *FAST]
        log = _log_calls(monkeypatch, tmp_path / "calls.log")
        assert main(["sweep", *grid, "--jobs", "2", "--out", str(tmp_path / "2")]) == 0
        calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert sorted(what for what, _, _ in calls) == ["cell"] * 4 + ["reference"] * 2
        for pid in {pid for _, _, pid in calls}:
            assert pid != str(os.getpid())
            assert [what for what, _, p in calls if p == pid][0] == "reference"
        assert main(["sweep", *grid, "--jobs", "1", "--out", str(tmp_path / "1")]) == 0
        assert (tmp_path / "1" / "sw.sweep.csv").read_bytes() == \
            (tmp_path / "2" / "sw.sweep.csv").read_bytes()

    def test_each_reference_output_is_normed_once_per_sweep(self, tmp_path, monkeypatch):
        # 3 cells score against the same 60 replayed blocks: at most one
        # Frobenius norm of each block's float64 values, and a second sweep
        # reads a fresh trace, so it computes its own norms again
        trace = tmp_path / "ref.wct"
        assert main(["record", str(trace), "--seed", "3", "--n-tokens", "16",
                     "--dims", "4", "--steps", "60"]) == 0
        refs = []
        monkeypatch.setattr(cli, "_reference", _capturing(refs, cli._reference))
        wide = read_trace(trace).outputs.blocks.astype(np.float64)
        index = {block.tobytes(): i for i, block in enumerate(wide)}
        normed = []
        real = kernels.fro_norm

        def counted(a, sums=None):
            if a.shape == wide.shape[1:] and a.dtype == np.float64:
                i = index.get(np.ascontiguousarray(a).tobytes())
                normed[-1] += [] if i is None else [i]
            return real(a, sums)

        monkeypatch.setattr(kernels, "fro_norm", counted)
        argv = ["sweep", "--set", "workload.kind=trace",
                "--set", f"workload.trace_path={trace}",
                "--set", "sweep.eta=0.05,0.2,0.8", "--seeds", "3", "--run-id", "sw"]
        for out in ("a", "b"):
            normed.append([])
            assert main([*argv, "--out", str(tmp_path / out)]) == 0
        assert len(refs) == 2 and refs[0].oracle is not refs[1].oracle
        assert 0 < len(normed[0]) == len(set(normed[0])) <= 60
        assert normed[1] == normed[0]

    def test_a_rewritten_trace_is_swept_afresh(self, tmp_path):
        # a second sweep in the same process reads the trace as it is now
        trace = tmp_path / "ref.wct"
        argv = ["sweep", "--set", "workload.kind=trace",
                "--set", f"workload.trace_path={trace}",
                "--set", "sweep.eta=0.05,0.2", "--seeds", "3", "--run-id", "sw"]
        csvs = []
        for seed in ("3", "4"):
            assert main(["record", str(trace), "--seed", seed, *FAST]) == 0
            out = tmp_path / seed
            assert main([*argv, "--out", str(out)]) == 0
            csvs.append((out / "sw.sweep.csv").read_bytes())
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = tmp_path / "fresh"
        subprocess.run([sys.executable, "-m", "worldcache.cli", *argv, "--out", str(fresh)],
                       env=env, check=True, capture_output=True, timeout=300)
        assert csvs[1] == (fresh / "sw.sweep.csv").read_bytes()
        assert csvs[1] != csvs[0]

    def test_missing_trace_fails_every_cell_alike(self, tmp_path, capsys):
        code = main(["sweep", "--set", "workload.kind=trace",
                     "--set", f"workload.trace_path={tmp_path / 'absent.wct'}",
                     "--set", "sweep.eta=0.15,0.3", "--seeds", "2,3",
                     "--out", str(tmp_path), "--run-id", "sw"])
        assert code == 2
        captured = capsys.readouterr()
        assert "0/4 cells ok" in captured.out
        failed = [line for line in captured.err.splitlines()
                  if line.startswith("sweep cell failed")]
        assert len(failed) == 4
        messages = {line.split("): ", 1)[1] for line in failed}
        assert len(messages) == 1
        assert messages.pop().startswith("FileNotFoundError: ")


# (option strings, dest) of the flags every run-like subcommand shares
_COMMON_OPTIONS = [
    (("--config",), "config"),
    (("--set",), "assignments"),
    (("--seed",), "seed"),
    (("--preset",), "preset"),
    (("--n-tokens",), "n_tokens"),
    (("--dims",), "dims"),
    (("--noise-sigma",), "noise_sigma"),
    (("--coupling",), "coupling"),
    (("--amplitude",), "amplitude"),
    (("--frequency",), "frequency"),
    (("--turn-step",), "turn_step"),
    (("--predictor",), "predictor"),
    (("--n-max",), "n_max"),
    (("--rng-seed",), "rng_seed"),
    (("--p-stable",), "p_stable"),
    (("--p-chaotic",), "p_chaotic"),
    (("--skipper",), "skipper"),
    (("--eta",), "eta"),
    (("--interval",), "interval"),
    (("--steps",), "steps"),
    (("--t-max",), "t_max"),
    (("--out",), "out"),
    (("--run-id",), "run_id"),
]
_HELP = [(("-h", "--help"), "help")]
_TRACE = [((), "trace")]


def _count_row_norms(monkeypatch):
    """Shapes of the arrays kernels.row_norms is called on from here on."""
    calls = []
    real = kernels.row_norms

    def counted(a, sums=None):
        calls.append(a.shape)
        return real(a, sums)

    monkeypatch.setattr(kernels, "row_norms", counted)
    return calls


_GROUP_COLUMNS = [STEP_COLUMNS.index(c) for c in ("stable_err", "linear_err", "chaotic_err")]


class TestSweepScoresOnlyWhatItWrites:
    @pytest.mark.parametrize("workload", ["synthetic", "trace"])
    def test_sweep_cells_take_no_row_norms(self, tmp_path, monkeypatch, workload):
        argv = ["sweep", *_GRID]
        if workload == "trace":  # the workload flags are the record's
            trace = tmp_path / "ref.wct"
            assert main(["record", str(trace), "--seed", "3", *FAST]) == 0
            argv = ["sweep", *_GRID[:-len(FAST)], "--set", "workload.kind=trace",
                    "--set", f"workload.trace_path={trace}"]
        calls = _count_row_norms(monkeypatch)
        assert main([*argv, "--out", str(tmp_path / "lean")]) == 0
        assert calls == []
        # the same cells with every group scored write the same bytes
        execute = cli._execute
        monkeypatch.setattr(cli, "_execute", lambda cfg, ref, full_records: execute(cfg, ref))
        assert main([*argv, "--out", str(tmp_path / "scored")]) == 0
        assert calls
        assert (tmp_path / "lean" / "sw.sweep.csv").read_bytes() == \
            (tmp_path / "scored" / "sw.sweep.csv").read_bytes()

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_run_and_replay_still_score_each_group(self, tmp_path, monkeypatch, command):
        argv = _run_args(tmp_path)
        if command == "replay":
            trace = tmp_path / "ref.wct"
            assert main(["record", str(trace), "--seed", "7", *FAST]) == 0
            argv = ["replay", str(trace), "--out", str(tmp_path), "--run-id", "rid"]
        calls = _count_row_norms(monkeypatch)
        assert main(argv) == 0
        _, steps = _read_rows(tmp_path / "rid.steps.csv")
        cached = [r for r in steps if r[2] == "CACHE"]
        assert cached and len(calls) >= len(cached)
        assert all(r[i] != "nan" for r in cached for i in _GROUP_COLUMNS[1:])


    def test_sweep_scores_drift_only_in_cas_cells(self, tmp_path, monkeypatch):
        trace = tmp_path / "ref.wct"
        assert main(["record", str(trace), "--seed", "3", *FAST]) == 0
        scores, real = [], skipper.drift_score

        def counted(*args):
            scores.append(args)
            return real(*args)

        cells, execute = [], cli._execute

        def cell(cfg, ref, **kwargs):
            before = len(scores)
            cached, metrics = execute(cfg, ref, **kwargs)
            cells.append((cfg.skipper.kind, len(scores) - before, cached.cache_count))
            return cached, metrics

        monkeypatch.setattr(skipper, "drift_score", counted)
        monkeypatch.setattr(cli, "_execute", cell)
        argv = ["sweep", "--set", "workload.kind=trace", "--set", f"workload.trace_path={trace}",
                "--set", "sweep.eta=0.15,0.3", "--set", "sweep.skipper=cas,fixed-interval",
                "--seeds", "3", "--out", str(tmp_path), "--run-id", "sw"]
        assert main(argv) == 0
        assert sorted(kind.value for kind, _, _ in cells) == ["cas"] * 2 + ["fixed-interval"] * 2
        for kind, n_scores, n_cached in cells:
            assert n_cached
            assert n_scores == (n_cached if kind is SkipKind.CAS else 0)


class TestFlagTable:
    @pytest.mark.parametrize(
        "command, expected",
        [
            ("run", _HELP + _COMMON_OPTIONS),
            ("sweep", _HELP + _COMMON_OPTIONS + [(("--seeds",), "seeds"), (("--jobs",), "jobs")]),
            ("record", _HELP + _TRACE + _COMMON_OPTIONS),
            ("replay", _HELP + _TRACE + _COMMON_OPTIONS),
        ],
    )
    def test_options_and_dests(self, command, expected):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        actions = sub.choices[command]._actions
        assert [(tuple(a.option_strings), a.dest) for a in actions] == expected

    def test_each_flag_sets_its_schema_key_with_its_type(self):
        for dest, (section, key, _) in _FLAGS.items():
            type_name, default = SCHEMA[section][key]
            value = default if default is not None else {"int": 5, "float": 0.5}[type_name]
            text = format_value(value)
            args = build_parser().parse_args(["run", "--" + dest.replace("_", "-"), text])
            overrides = _collect_overrides(args)
            assert overrides == {section: {key: text}}, dest
            overrides.setdefault("workload", {}).setdefault("seed", "1")
            got = resolve(None, overrides).values[section][key]
            assert got == value and type(got) is type(value), dest


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("worldcache ")
