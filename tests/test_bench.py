import math

import numpy as np
import pytest

from worldcache import (
    DimensionError,
    EulerScheduler,
    ParameterError,
    PredictorConfig,
    Preset,
    SkipConfig,
    SkipKind,
    SyntheticBackbone,
    SyntheticSpec,
    TokenGroup,
    TokenMatrix,
    compare_runs,
    oracle_run,
    run,
    sweep,
    uniform_grid,
)
from worldcache import bench
from worldcache.pipeline import step_errors


def _pair(seed=7, steps=30, eta=0.2, skip_cfg=None):
    spec = SyntheticSpec(preset=Preset.MIXED, seed=seed)
    backbone = SyntheticBackbone(spec)
    sched = EulerScheduler(uniform_grid(steps))
    z0 = backbone.initial_latent()
    ref = oracle_run(backbone, sched, z0)
    cached = run(
        backbone, sched, z0,
        PredictorConfig(), skip_cfg or SkipConfig(eta=eta),
        oracle_outputs=ref.surrogates,
    )
    return cached, ref


class TestCompareRuns:
    def test_self_comparison_is_zero_error(self):
        # eta = 0 is the oracle by construction, so nothing may differ
        cached, ref = _pair(eta=0.0)
        m = compare_runs(cached, ref)
        assert all(e == 0.0 for e in m.per_step_rel_error)
        assert all(e == 0.0 for e in m.per_group_error.values())
        assert m.final_latent_rel_error == 0.0
        assert m.full_ratio == 1.0
        assert m.est_speedup == 1.0

    def test_cached_run_metrics_reflect_counts(self):
        cached, ref = _pair()
        m = compare_runs(cached, ref)
        assert m.full_count == cached.full_count
        assert m.full_ratio == cached.full_count / 30
        assert m.steps == 30
        assert m.est_speedup > 1.0
        assert len(m.per_step_rel_error) == 30
        assert m.mean_rel_error == pytest.approx(
            float(np.mean(m.per_step_rel_error))
        )

    def test_known_offset_gives_exact_relative_error(self):
        # a surrogate off by delta on a unit-norm oracle row: the relative
        # error must equal delta, and no grouping means no group errors
        delta = 0.25
        rel, *group_errs = step_errors(
            TokenMatrix([[1.0 + delta]]), TokenMatrix([[1.0]]), None
        )
        assert rel == pytest.approx(delta, rel=1e-12)
        assert all(math.isnan(e) for e in group_errs)

    @pytest.mark.parametrize("kind", list(SkipKind))
    def test_metrics_reduce_the_records(self, kind, monkeypatch):
        cached, ref = _pair(skip_cfg=SkipConfig(kind=kind, tau=0.05))
        calls = []

        def counted(*args):
            calls.append(args)
            return step_errors(*args)

        monkeypatch.setattr(bench, "step_errors", counted)
        m = compare_runs(cached, ref)
        assert len(calls) == 1  # the final latent only
        assert m.per_step_rel_error == tuple(r.rel_err for r in cached.records)
        columns = {
            TokenGroup.STABLE: [r.stable_err for r in cached.records],
            TokenGroup.LINEAR: [r.linear_err for r in cached.records],
            TokenGroup.CHAOTIC: [r.chaotic_err for r in cached.records],
        }
        for g, col in columns.items():
            defined = [e for e in col if not math.isnan(e)]
            assert defined
            assert m.per_group_error[g] == pytest.approx(
                float(np.mean(defined)), rel=1e-12
            )

    def test_per_group_errors_present_after_refresh(self):
        cached, ref = _pair()
        m = compare_runs(cached, ref)
        for g in TokenGroup:
            assert math.isfinite(m.per_group_error[g])
        # chaotic rows are the hardest to extrapolate on this preset
        assert m.per_group_error[TokenGroup.CHAOTIC] >= m.per_group_error[
            TokenGroup.STABLE
        ]

    def test_speedup_decreases_with_full_count(self):
        ms = []
        for eta in (0.4, 0.2, 0.0):
            cached, ref = _pair(eta=eta)
            ms.append(compare_runs(cached, ref))
        by_fulls = sorted(ms, key=lambda m: m.full_count)
        speedups = [m.est_speedup for m in by_fulls]
        assert speedups == sorted(speedups, reverse=True)

    def test_requires_recorded_outputs(self):
        # a cached run made without oracle_outputs has no errors to reduce
        spec = SyntheticSpec(preset=Preset.MIXED, seed=3)
        backbone = SyntheticBackbone(spec)
        sched = EulerScheduler(uniform_grid(8))
        z0 = backbone.initial_latent()
        ref = oracle_run(backbone, sched, z0)
        bare = run(backbone, sched, z0, PredictorConfig(), SkipConfig())
        with pytest.raises(ParameterError, match="oracle_outputs"):
            compare_runs(bare, ref)

    def test_step_count_mismatch(self):
        _, a = _pair(steps=10)
        _, b = _pair(steps=12)
        with pytest.raises(DimensionError):
            compare_runs(a, b)

    def test_rejects_bad_cache_cost(self):
        cached, ref = _pair()
        with pytest.raises(ParameterError):
            compare_runs(cached, ref, c_cache=-0.5)


def _square(point, seed):
    return point["x"] * point["x"] + seed


def _fails_on_two(point, seed):
    if point["x"] == 2:
        raise ValueError("boom")
    return point["x"]


class TestSweep:
    def test_grid_cross_seeds_row_order(self):
        rows = sweep(_square, {"x": [1, 2, 3]}, seeds=[10, 20])
        assert [(r.point["x"], r.seed) for r in rows] == [
            (1, 10), (1, 20), (2, 10), (2, 20), (3, 10), (3, 20),
        ]
        assert [r.metrics for r in rows] == [11, 21, 14, 24, 19, 29]

    def test_cells_of_one_seed_run_back_to_back(self):
        calls = []

        def record(point, seed):
            calls.append((point["x"], seed))
            return seed

        sweep(record, {"x": [1, 2, 3]}, seeds=[10, 20])
        assert calls == [(1, 10), (2, 10), (3, 10), (1, 20), (2, 20), (3, 20)]

    def test_row_failures_reported_not_raised(self):
        rows = sweep(_fails_on_two, {"x": [1, 2, 3]}, seeds=[0])
        assert rows[0].error is None
        assert rows[1].metrics is None
        assert "boom" in rows[1].error
        assert rows[2].error is None

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ParameterError):
            sweep(_square, {"x": [1]}, seeds=[])

    def test_empty_axis_rejected(self):
        with pytest.raises(ParameterError):
            sweep(_square, {"x": []}, seeds=[1])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ParameterError):
            sweep(_square, {"x": [1]}, seeds=[1], jobs=0)

    def test_failed_cell_error_text_same_serial_and_parallel(self):
        grid = {"x": [1, 2]}
        serial = sweep(_fails_on_two, grid, seeds=[0], jobs=1)
        parallel = sweep(_fails_on_two, grid, seeds=[0], jobs=2)
        assert serial[1].error == "ValueError: boom"
        assert [r.error for r in serial] == [r.error for r in parallel]

    def test_parallel_matches_serial(self):
        grid = {"x": [1, 2], "y": [5]}

        serial = sweep(_xy, grid, seeds=[3, 4], jobs=1)
        parallel = sweep(_xy, grid, seeds=[3, 4], jobs=2)
        assert [(r.point, r.seed, r.metrics) for r in serial] == [
            (r.point, r.seed, r.metrics) for r in parallel
        ]


def _xy(point, seed):
    return point["x"] * 100 + point["y"] * 10 + seed
