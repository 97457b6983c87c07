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
from worldcache.pipeline import RunResult, StepRecord, Decision


def _pair(seed=7, steps=30, eta=0.2):
    spec = SyntheticSpec(preset=Preset.MIXED, seed=seed)
    backbone = SyntheticBackbone(spec)
    sched = EulerScheduler(uniform_grid(steps))
    z0 = backbone.initial_latent()
    ref = oracle_run(backbone, sched, z0, record_outputs=True)
    cached = run(
        backbone, sched, z0,
        PredictorConfig(), SkipConfig(eta=eta),
        record_outputs=True, oracle_outputs=ref.surrogates,
    )
    return cached, ref


class TestCompareRuns:
    def test_self_comparison_is_zero_error(self):
        _, ref = _pair()
        m = compare_runs(ref, ref)
        assert all(e == 0.0 for e in m.per_step_rel_error)
        assert m.final_latent_rel_error == 0.0
        assert m.full_ratio == 1.0
        assert m.est_speedup == pytest.approx(1.0, rel=1e-12)

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
        # single cached step whose surrogate is off by delta on a unit-norm
        # oracle row: per-step relative error must equal delta
        delta = 0.25
        oracle_row = TokenMatrix([[1.0]])
        cached_row = TokenMatrix([[1.0 + delta]])
        rec = StepRecord(
            step=0, timestep=1.0, decision=Decision.CACHE, k=1,
            e_t=0.0, e_acc=0.0,
        )
        cached = RunResult(
            records=[rec], final_latent=cached_row,
            full_count=0, cache_count=1, surrogates=[cached_row],
        )
        oracle = RunResult(
            records=[rec], final_latent=oracle_row,
            full_count=1, cache_count=0, surrogates=[oracle_row],
        )
        m = compare_runs(cached, oracle)
        assert m.per_step_rel_error[0] == pytest.approx(delta, rel=1e-12)

    def test_per_group_errors_present_after_refresh(self):
        cached, ref = _pair()
        m = compare_runs(cached, ref)
        for g in TokenGroup:
            assert math.isfinite(m.per_group_error[g])
        # chaotic rows are the hardest to extrapolate on this preset
        assert m.per_group_error[TokenGroup.CHAOTIC] >= m.per_group_error[
            TokenGroup.STABLE
        ]

    def test_e_acc_trace_matches_records(self):
        cached, ref = _pair()
        m = compare_runs(cached, ref)
        assert m.e_acc_trace == tuple((r.step, r.e_acc) for r in cached.records)

    def test_speedup_decreases_with_full_count(self):
        ms = []
        for eta in (0.4, 0.2, 0.0):
            cached, ref = _pair(eta=eta)
            ms.append(compare_runs(cached, ref))
        by_fulls = sorted(ms, key=lambda m: m.full_count)
        speedups = [m.est_speedup for m in by_fulls]
        assert speedups == sorted(speedups, reverse=True)

    def test_requires_recorded_outputs(self):
        spec = SyntheticSpec(preset=Preset.MIXED, seed=3)
        backbone = SyntheticBackbone(spec)
        sched = EulerScheduler(uniform_grid(8))
        z0 = backbone.initial_latent()
        bare = oracle_run(backbone, sched, z0, record_outputs=False)
        with pytest.raises(ParameterError):
            compare_runs(bare, bare)

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
