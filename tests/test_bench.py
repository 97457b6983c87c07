import functools
import math
import os
import warnings

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
from worldcache import bench, kernels
from worldcache.bench import CACHE_COST
from worldcache.curvature import group_tokens
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


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestCompareRuns:
    def test_self_comparison_is_zero_error(self):
        # eta = 0 is the oracle by construction, so nothing may differ
        cached, ref = _pair(eta=0.0)
        m = compare_runs(cached, ref)
        assert all(r.rel_err == 0.0 for r in cached.records)
        assert m.mean_rel_error == 0.0
        assert all(
            e == 0.0 or math.isnan(e)  # NaN before the first grouping
            for r in cached.records
            for e in (r.stable_err, r.linear_err, r.chaotic_err)
        )
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
        assert len(cached.records) == 30
        assert m.mean_rel_error == float(np.mean([r.rel_err for r in cached.records]))

    def test_known_offset_gives_exact_relative_error(self):
        # a surrogate off by delta on a unit-norm oracle row: the relative
        # error must equal delta, and no grouping means no group errors
        delta = 0.25
        rel, *group_errs = step_errors(
            TokenMatrix([[1.0 + delta]]), TokenMatrix([[1.0]]), None
        )
        assert rel == pytest.approx(delta, rel=1e-12)
        assert all(math.isnan(e) for e in group_errs)

    def test_errors_follow_an_exact_rescale_to_the_top_of_the_float_range(self):
        rng = np.random.default_rng(3)
        y, o = rng.normal(size=(2, 64, 8))
        g = group_tokens(rng.random(64))
        base = step_errors(TokenMatrix(y), TokenMatrix(o), g)
        row_err = kernels.row_norms(y - o)
        for grp in TokenGroup:  # in range: the bits of .mean()
            assert base[1 + grp] == row_err[g.members[grp]].mean()
        # at 2**1020 the Frobenius norm of y - o and each group's sum of row
        # errors pass the float range; the errors must not
        big = step_errors(TokenMatrix(np.ldexp(y, 1020)), TokenMatrix(np.ldexp(o, 1020)), g)
        assert big[0] == pytest.approx(base[0], rel=1e-14)
        for b, e in zip(big[1:], base[1:]):
            assert b == pytest.approx(math.ldexp(e, 1020), rel=1e-14)
        # rel alone (no grouping) has the bits of the grouped rel at every
        # scale, the sums of squares normal, inf, subnormal or all 0
        for exp in (0, 1020, 600, -520, -600):
            ys, os_ = TokenMatrix(np.ldexp(y, exp)), TokenMatrix(np.ldexp(o, exp))
            rel, *nans = step_errors(ys, os_, None)
            assert _bits(rel) == _bits(step_errors(ys, os_, g)[0])
            assert all(math.isnan(e) for e in nans)

    def test_errors_where_the_difference_itself_overflows(self):
        # y - y_o is +-3e308 in row 0, past the float range, though every
        # error is in range: the errors must equal those of the same inputs
        # at 2**-64, scaled back, with no warning
        rng = np.random.default_rng(5)
        y, o = np.ldexp(rng.normal(size=(2, 64, 8)), 1000)
        y[0, 0], o[0, 0] = 1.5e308, -1.5e308
        g = group_tokens(rng.random(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = step_errors(TokenMatrix(y), TokenMatrix(o), g)
        small = step_errors(TokenMatrix(np.ldexp(y, -64)), TokenMatrix(np.ldexp(o, -64)), g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel = step_errors(TokenMatrix(y), TokenMatrix(o), None)[0]
        assert _bits(rel) == _bits(big[0])
        assert all(math.isfinite(e) for e in big)
        assert big[0] == pytest.approx(small[0], rel=1e-14)
        for b, s in zip(big[1:], small[1:]):
            assert b == pytest.approx(math.ldexp(s, 64), rel=1e-14)

    @pytest.mark.parametrize("kind", list(SkipKind))
    def test_metrics_reduce_the_records(self, kind, monkeypatch):
        cached, ref = _pair(skip_cfg=SkipConfig(kind=kind, eta=0.05))
        calls = []

        def counted(*args):
            calls.append(args)
            return step_errors(*args)

        monkeypatch.setattr(bench, "step_errors", counted)
        m = compare_runs(cached, ref)
        assert len(calls) == 1  # the final latent only
        assert m.mean_rel_error == float(np.mean(tuple(r.rel_err for r in cached.records)))

    def test_per_group_errors_present_after_refresh(self):
        cached, _ = _pair()
        means = {}
        for name in ("stable_err", "linear_err", "chaotic_err"):
            column = [getattr(r, name) for r in cached.records]
            defined = [e for e in column if not math.isnan(e)]
            assert defined and all(math.isfinite(e) for e in defined)
            means[name] = float(np.mean(defined))
        # chaotic rows are the hardest to extrapolate on this preset
        assert means["chaotic_err"] >= means["stable_err"]

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

    def test_a_cached_step_costs_cache_cost(self):
        cached, ref = _pair()
        m = compare_runs(cached, ref)
        assert m.cache_count
        assert m.est_speedup == m.steps / (m.full_count + CACHE_COST * m.cache_count)


def _square(seed):
    return functools.partial(_square_cell, seed)


def _square_cell(seed, point):
    return point["x"] * point["x"] + seed


def _fails_on_two(seed):
    return _fails_on_two_cell


def _fails_on_two_cell(point):
    if point["x"] == 2:
        raise ValueError("boom")
    return point["x"]


def _no_workload(seed):
    raise FileNotFoundError(f"no workload for seed {seed}")


def _xy(seed):
    return functools.partial(_xy_cell, seed)


def _xy_cell(seed, point):
    return point["x"] * 100 + point["y"] * 10 + seed


def _logging(log, seed):
    """A factory that appends "seed pid" to the file log at each call."""
    with open(log, "a", encoding="utf-8") as f:
        f.write(f"{seed} {os.getpid()}\n")
    return _xy(seed)


class TestSweep:
    def test_grid_cross_seeds_row_order(self):
        rows = sweep(_square, {"x": [1, 2, 3]}, seeds=[10, 20])
        assert [(r.point["x"], r.seed) for r in rows] == [
            (1, 10), (1, 20), (2, 10), (2, 20), (3, 10), (3, 20),
        ]
        assert [r.metrics for r in rows] == [11, 21, 14, 24, 19, 29]

    def test_cells_of_one_seed_run_back_to_back(self):
        calls = []

        def cells_for(seed):
            calls.append(("seed", seed))
            return lambda point: calls.append((point["x"], seed)) or seed

        sweep(cells_for, {"x": [1, 2, 3]}, seeds=[10, 20])
        assert calls == [
            ("seed", 10), (1, 10), (2, 10), (3, 10),
            ("seed", 20), (1, 20), (2, 20), (3, 20),
        ]

    def test_row_failures_reported_not_raised(self):
        rows = sweep(_fails_on_two, {"x": [1, 2, 3]}, seeds=[0])
        assert rows[0].error is None
        assert rows[1].metrics is None
        assert "boom" in rows[1].error
        assert rows[2].error is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_factory_fails_each_row_of_its_seed_alike(self, jobs):
        rows = sweep(_no_workload, {"x": [1, 2, 3]}, seeds=[4, 5], jobs=jobs)
        assert [(r.seed, r.metrics, r.error) for r in rows] == [
            (seed, None, f"FileNotFoundError: no workload for seed {seed}")
            for _ in range(3) for seed in (4, 5)
        ]

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

    def test_fewer_seeds_than_jobs_split_into_contiguous_runs(self):
        grid = {"x": [1, 2, 3, 4, 5], "y": [5]}
        serial = sweep(_xy, grid, seeds=[7], jobs=1)
        parallel = sweep(_xy, grid, seeds=[7], jobs=4)
        assert [(r.point, r.seed, r.metrics) for r in serial] == [
            (r.point, r.seed, r.metrics) for r in parallel
        ]

    @pytest.mark.parametrize("jobs, seeds, built", [
        (1, [3, 4], ["3", "4"]),  # one task per seed, in this process
        (2, [7], ["7", "7"]),  # the seed's cells cut into two tasks, one per worker
    ])
    def test_the_factory_runs_once_per_task(self, tmp_path, jobs, seeds, built):
        log = tmp_path / "calls.log"
        grid = {"x": [1, 2, 3, 4], "y": [5]}
        rows = sweep(functools.partial(_logging, log), grid, seeds=seeds, jobs=jobs)
        assert [r.metrics for r in rows] == [r.metrics for r in sweep(_xy, grid, seeds=seeds)]
        logged = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert sorted(seed for seed, _ in logged) == built
        assert {pid == str(os.getpid()) for _, pid in logged} == {jobs == 1}

    @pytest.mark.parametrize("jobs, seeds, n_points, sizes", [
        (1, [1, 2], 3, [3, 3]),
        (2, [1, 2], 3, [3, 3]),
        (3, [1, 2], 3, [3, 3]),
        (4, [1, 2], 5, [2, 3, 2, 3]),
        (4, [7], 10, [2, 3, 2, 3]),
        (8, [7], 3, [1, 1, 1]),
    ])
    def test_split_tasks(self, jobs, seeds, n_points, sizes):
        points = [{"x": i} for i in range(n_points)]
        tasks = bench._split_tasks(points, seeds, jobs)
        assert [len(chunk) for chunk, _ in tasks] == sizes
        for seed in seeds:  # each seed's chunks cover its points in order
            assert [p for chunk, s in tasks if s == seed for p in chunk] == points
        assert [s for _, s in tasks] == sorted(s for _, s in tasks)
