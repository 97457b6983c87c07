import re

import pytest

from worldcache.cli import METRIC_COLUMNS, STEP_COLUMNS, main

FAST = ["--n-tokens", "16", "--dims", "4", "--steps", "12"]


def _run_args(tmp_path, *extra, run_id="rid"):
    args = ["run", "--seed", "7", "--out", str(tmp_path), *FAST]
    if run_id is not None:
        args += ["--run-id", run_id]
    args += list(extra)
    return args


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

    def test_truncated_trace_on_run_is_runtime_error(self, tmp_path, capsys):
        trace = tmp_path / "t"
        assert main(["record", str(trace), "--seed", "3", *FAST]) == 0
        capsys.readouterr()
        raw = (tmp_path / "t.wct").read_bytes()
        (tmp_path / "short.wct").write_bytes(raw[:-10])
        code = main(["run", "--trace", str(tmp_path / "short.wct"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRecordValidateReplay:
    def test_record_appends_extension_and_writes_manifest(self, tmp_path, capsys):
        code = main(["record", str(tmp_path / "demo"), "--seed", "5", *FAST])
        assert code == 0
        assert (tmp_path / "demo.wct").exists()
        assert (tmp_path / "demo.manifest.ini").exists()
        out = capsys.readouterr().out
        assert "recorded" in out and "12 steps" in out

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

    def test_record_requires_synthetic_workload(self, tmp_path, capsys):
        main(["record", str(tmp_path / "demo"), "--seed", "5", *FAST])
        capsys.readouterr()
        code = main(["record", str(tmp_path / "again"),
                     "--set", "workload.kind=trace",
                     "--set", f"workload.trace_path={tmp_path / 'demo.wct'}"])
        assert code == 1
        assert "synthetic" in capsys.readouterr().err


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
        assert "ParameterError: " in captured.err
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("worldcache ")
