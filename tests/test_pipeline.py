import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from worldcache import (
    Decision,
    DimensionError,
    EulerScheduler,
    ParameterError,
    PredictorConfig,
    PredictorKind,
    Preset,
    SkipConfig,
    SkipKind,
    SyntheticBackbone,
    SyntheticSpec,
    Timestep,
    TokenMatrix,
    TraceBackbone,
    compare_runs,
    oracle_run,
    read_trace,
    run,
    uniform_grid,
    write_trace,
)
from worldcache import kernels, pipeline, predictor, skipper
from worldcache.curvature import HISTORY_DEPTH, TokenGroup, group_tokens
from worldcache.errors import OrderingError
from worldcache.pipeline import step_errors


def _setup(preset=Preset.MIXED, seed=7, steps=50, **spec_kw):
    spec = SyntheticSpec(preset=preset, seed=seed, **spec_kw)
    backbone = SyntheticBackbone(spec)
    scheduler = EulerScheduler(uniform_grid(steps))
    return backbone, scheduler, backbone.initial_latent()


class TestUniformGrid:
    def test_descending_integers(self):
        grid = uniform_grid(5)
        assert [t.value for t in grid] == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        assert [t.index for t in grid] == [0, 1, 2, 3, 4, 5]

    def test_custom_t_max(self):
        grid = uniform_grid(4, t_max=1.0)
        assert [t.value for t in grid] == [1.0, 0.75, 0.5, 0.25, 0.0]

    def test_zero_steps(self):
        grid = uniform_grid(0)
        assert len(grid) == 1

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            uniform_grid(-1)


class TestEulerScheduler:
    def test_explicit_update(self):
        sched = EulerScheduler(uniform_grid(2, t_max=2.0))
        z = TokenMatrix([[1.0, 1.0]])
        y = TokenMatrix([[2.0, 4.0]])
        out = sched.step(z, y, sched.timesteps[0], sched.timesteps[1])
        # z' = z + (t_to - t_from) * y with dt = -1
        assert out.data.tolist() == [[-1.0, -3.0]]

    def test_rejects_non_descending_grid(self):
        with pytest.raises(OrderingError):
            EulerScheduler(
                (Timestep(value=1.0, index=0), Timestep(value=2.0, index=1))
            )


class TestOracleRun:
    def test_zero_step_schedule_returns_input(self):
        backbone, _, z0 = _setup()
        sched = EulerScheduler(uniform_grid(0))
        result = oracle_run(backbone, sched, z0)
        assert result.final_latent == z0
        assert result.full_count == 0
        assert result.records == []

    def test_all_steps_full(self):
        backbone, sched, z0 = _setup(steps=20)
        result = oracle_run(backbone, sched, z0)
        assert result.full_count == 20
        assert result.cache_count == 0
        assert all(r.decision is Decision.FULL for r in result.records)

    def test_record_outputs_retains_every_step(self):
        backbone, sched, z0 = _setup(steps=10)
        result = oracle_run(backbone, sched, z0, record_outputs=True)
        assert len(result.surrogates) == 10

    def test_sink_takes_each_output_in_turn(self):
        backbone, sched, z0 = _setup(steps=10)
        taken = []
        result = oracle_run(backbone, sched, z0, record_outputs=False, sink=taken.append)
        assert result.surrogates is None
        kept = oracle_run(backbone, sched, z0).surrogates
        assert len(taken) == 10 and all(a == b for a, b in zip(taken, kept))


class TestRunDegenerateThresholds:
    def test_eta_zero_equals_oracle_bitwise(self):
        backbone, sched, z0 = _setup()
        ref = oracle_run(backbone, sched, z0)
        cached = run(
            backbone, sched, z0,
            PredictorConfig(), SkipConfig(eta=0.0),
        )
        assert cached.full_count == 50
        assert cached.cache_count == 0
        assert cached.final_latent == ref.final_latent  # bitwise equality

    def test_eta_inf_uncapped_runs_warmup_only(self):
        backbone, sched, z0 = _setup()
        cached = run(
            backbone, sched, z0,
            PredictorConfig(),
            SkipConfig(eta=math.inf, enforce_streak_cap=False),
        )
        assert cached.full_count == 3
        assert cached.cache_count == 47
        decisions = [r.decision for r in cached.records]
        assert decisions[:3] == [Decision.FULL] * 3
        assert all(d is Decision.CACHE for d in decisions[3:])


class TestRunStructure:
    def test_counts_always_partition_steps(self):
        backbone, sched, z0 = _setup()
        for eta in (0.05, 0.2, 1.0):
            result = run(
                backbone, sched, z0, PredictorConfig(), SkipConfig(eta=eta)
            )
            assert result.full_count + result.cache_count == 50
            assert result.steps == 50

    def test_warmup_steps_are_always_full(self):
        backbone, sched, z0 = _setup()
        for eta in (0.05, 0.5, math.inf):
            result = run(
                backbone, sched, z0, PredictorConfig(), SkipConfig(eta=eta)
            )
            assert [r.decision for r in result.records[:3]] == [Decision.FULL] * 3

    @pytest.mark.parametrize("skip_kind", list(SkipKind))
    @pytest.mark.parametrize("predictor_kind", list(PredictorKind))
    def test_warmup_is_the_curvature_history_for_every_policy(
        self, predictor_kind, skip_kind
    ):
        # whatever a forecast needs, the first HISTORY_DEPTH steps are FULL;
        # with a budget that never fires, the next step caches
        backbone, sched, z0 = _setup(steps=6)
        result = run(
            backbone, sched, z0,
            PredictorConfig(kind=predictor_kind, rng_seed=0),
            SkipConfig(kind=skip_kind, eta=math.inf, interval=1),
        )
        decisions = [r.decision for r in result.records[:HISTORY_DEPTH + 1]]
        assert decisions == [Decision.FULL] * HISTORY_DEPTH + [Decision.CACHE]

    def test_full_records_read_zero_k_and_accumulator(self):
        backbone, sched, z0 = _setup()
        result = run(backbone, sched, z0, PredictorConfig(), SkipConfig(eta=0.2))
        for r in result.records:
            if r.decision is Decision.FULL:
                assert r.k == 0
                assert r.e_acc == 0.0

    def test_accumulator_non_decreasing_within_streaks(self):
        backbone, sched, z0 = _setup()
        result = run(backbone, sched, z0, PredictorConfig(), SkipConfig(eta=0.2))
        prev = 0.0
        for r in result.records:
            if r.decision is Decision.FULL:
                prev = 0.0
            else:
                assert r.e_acc >= prev
                prev = r.e_acc

    def test_cache_k_counts_streak_position(self):
        backbone, sched, z0 = _setup()
        result = run(
            backbone, sched, z0,
            PredictorConfig(),
            SkipConfig(kind=SkipKind.FIXED_INTERVAL, interval=3),
        )
        k = 0
        for r in result.records:
            if r.decision is Decision.FULL:
                k = 0
            else:
                k += 1
                assert r.k == k

    def test_determinism_bit_identical(self):
        backbone, sched, z0 = _setup()
        a = run(backbone, sched, z0, PredictorConfig(), SkipConfig())
        b = run(backbone, sched, z0, PredictorConfig(), SkipConfig())
        assert a.final_latent == b.final_latent
        assert a.full_count == b.full_count
        assert [r.e_acc for r in a.records] == [r.e_acc for r in b.records]

    def test_oracle_errors_recorded_when_reference_given(self):
        backbone, sched, z0 = _setup()
        ref = oracle_run(backbone, sched, z0)
        cached = run(
            backbone, sched, z0,
            PredictorConfig(), SkipConfig(),
            oracle_outputs=ref.surrogates,
        )
        fulls = [r for r in cached.records if r.decision is Decision.FULL]
        caches = [r for r in cached.records if r.decision is Decision.CACHE]
        assert all(r.rel_err == 0.0 for r in fulls)  # FULL reproduces oracle
        assert all(r.rel_err >= 0.0 for r in caches)
        assert any(r.rel_err > 0.0 for r in caches)

    def test_every_eta_full_set_is_subset_of_eta_zero(self):
        backbone, sched, z0 = _setup()
        base = run(backbone, sched, z0, PredictorConfig(), SkipConfig(eta=0.0))
        base_fulls = {
            r.step for r in base.records if r.decision is Decision.FULL
        }
        for eta in (0.1, 0.3):
            result = run(
                backbone, sched, z0, PredictorConfig(), SkipConfig(eta=eta)
            )
            fulls = {r.step for r in result.records if r.decision is Decision.FULL}
            assert fulls <= base_fulls
            assert {0, 1, 2} <= fulls

    def test_lower_eta_never_reduces_full_count(self):
        backbone, sched, z0 = _setup()
        etas = [0.5, 0.35, 0.2, 0.1, 0.0]
        counts = [
            run(
                backbone, sched, z0, PredictorConfig(), SkipConfig(eta=eta)
            ).full_count
            for eta in etas
        ]
        assert counts == sorted(counts)

    def test_cas_full_count_is_not_monotone_in_eta_on_turnpoint(self):
        # A FULL placed elsewhere changes later groupings and drift scores,
        # so a larger budget can end with more FULL steps. This pins one
        # such pair (96x8, 50 steps, seed 0), so a change to it shows up.
        backbone, sched, z0 = _setup(Preset.TURNPOINT, seed=0)
        counts = [
            run(backbone, sched, z0, PredictorConfig(), SkipConfig(eta=eta)).full_count
            for eta in (1.0, 1.122)
        ]
        assert counts == [11, 13]


class TestLoopInvariants:
    @given(
        n=st.integers(1, 16),
        d=st.integers(3, 8),
        steps=st.integers(0, 25),
        kind=st.sampled_from(list(SkipKind)),
        eta=st.floats(0.0, 1.0),
        cap=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_records_hold_the_invariants(self, n, d, steps, kind, eta, cap, seed):
        backbone, sched, z0 = _setup(seed=seed, steps=steps, n_tokens=n, dims=d)
        ref = oracle_run(backbone, sched, z0)
        pcfg = PredictorConfig()
        scfg = SkipConfig(kind=kind, eta=eta, enforce_streak_cap=cap)
        result = run(backbone, sched, z0, pcfg, scfg, oracle_outputs=ref.surrogates)

        assert result.full_count + result.cache_count == steps == len(result.records)
        # CAS and input-guided cache a step only below their budget
        budget = math.inf if kind is SkipKind.FIXED_INTERVAL else eta
        prev_e_acc = 0.0
        for r in result.records:
            assert math.isfinite(r.rel_err)
            if r.decision is Decision.FULL:
                assert r.k == 0 and r.e_acc == 0.0
            else:
                assert prev_e_acc < budget
                assert r.e_acc >= prev_e_acc  # never falls within a streak
            prev_e_acc = r.e_acc
            if kind is SkipKind.CAS and cap:  # only the adaptive policy caps
                assert r.k <= pcfg.n_max


def _capturing(groups, fn):
    def wrapper(*args, **kwargs):
        groups.append(fn(*args, **kwargs))
        return groups[-1]

    return wrapper


class TestConstantTrajectories:
    """All-stable workloads: every output is constant, so every velocity and
    acceleration is zero and, at eps = 0, every curvature is 0/0."""

    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 6),
        preset=st.sampled_from([Preset.SMOOTH, Preset.TURNPOINT]),
        kind=st.sampled_from([PredictorKind.CHTP, PredictorKind.RANDOM_GROUPING]),
        eps=st.sampled_from([0.0, 1e-8]),
        tenths=st.tuples(st.integers(0, 10), st.integers(0, 10)).map(sorted),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_groups_have_exact_sizes_and_partition_the_tokens(
        self, n, d, preset, kind, eps, tenths, seed
    ):
        p_stable, p_chaotic = (t / 10 for t in tenths)
        backbone, sched, z0 = _setup(
            preset, seed=seed, steps=14, n_tokens=n, dims=d, fractions=(1.0, 0.0, 0.0)
        )
        pcfg = PredictorConfig(
            kind=kind, rng_seed=seed, eps=eps, p_stable=p_stable, p_chaotic=p_chaotic
        )
        ref = oracle_run(backbone, sched, z0)
        groups = []
        with mock.patch.object(
            predictor, "group_tokens", _capturing(groups, predictor.group_tokens)
        ), mock.patch.object(
            predictor, "randomize_groups", _capturing(groups, predictor.randomize_groups)
        ):
            result = run(backbone, sched, z0, pcfg, oracle_outputs=ref.surrogates)

        assert result.cache_count > 0
        assert all(r.rel_err == 0.0 for r in result.records)
        sizes = {
            TokenGroup.STABLE: math.floor(Fraction(tenths[0], 10) * n),
            TokenGroup.CHAOTIC: math.ceil((1 - Fraction(tenths[1], 10)) * n),
        }
        sizes[TokenGroup.LINEAR] = n - sizes[TokenGroup.STABLE] - sizes[TokenGroup.CHAOTIC]
        per_refresh = 2 if kind is PredictorKind.RANDOM_GROUPING else 1
        assert len(groups) == per_refresh * (result.full_count - 2)
        for g in groups:
            assert g.counts() == sizes
            rows = [g.members[grp] for grp in TokenGroup]
            assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(n))
            for grp, idx in zip(TokenGroup, rows):
                assert np.all(np.diff(idx) > 0)
                assert np.all(g.labels[idx] == grp)
                assert g.members[grp] is idx  # built once per refresh
                assert not idx.flags.writeable
        if kind is PredictorKind.CHTP:  # all-zero kappa: ties go by token index
            stable = groups[0].members[TokenGroup.STABLE]
            assert stable.tolist() == list(range(sizes[TokenGroup.STABLE]))


class TestRunValidation:
    def test_random_grouping_needs_seed(self):
        backbone, sched, z0 = _setup()
        with pytest.raises(ParameterError):
            run(
                backbone, sched, z0,
                PredictorConfig(kind=PredictorKind.RANDOM_GROUPING),
                SkipConfig(),
            )

    def test_backbone_shape_drift_aborts(self):
        class DriftingBackbone:
            def __init__(self):
                self.calls = 0

            def evaluate(self, z, t):
                self.calls += 1
                if self.calls > 2:
                    return TokenMatrix(np.zeros((3, 3)))
                return TokenMatrix(np.zeros((4, 3)))

        sched = EulerScheduler(uniform_grid(6))
        with pytest.raises(DimensionError):
            oracle_run(
                DriftingBackbone(), sched, TokenMatrix(np.zeros((4, 3)))
            )

    def test_output_shape_unlike_the_latent_aborts(self):
        # a (1, 3) output would broadcast over the (4, 3) latent in the update
        class RowBackbone:
            def evaluate(self, z, t):
                return TokenMatrix(np.ones((1, 3)))

        sched = EulerScheduler(uniform_grid(6))
        with pytest.raises(DimensionError):
            run(RowBackbone(), sched, TokenMatrix(np.zeros((4, 3))))

    def test_update_past_the_float_range_raises(self):
        class HugeBackbone:
            def evaluate(self, z, t):
                return TokenMatrix(np.full(z.shape, -1.5e308))

        # the first Euler step is 1e308 + 1.5e308, past the float range
        sched = EulerScheduler(uniform_grid(4))
        with pytest.raises(ParameterError, match="non-finite"):
            run(HugeBackbone(), sched, TokenMatrix(np.full((2, 3), 1e308)))

    def test_oracle_outputs_length_must_match(self):
        backbone, sched, z0 = _setup(steps=10)
        ref = oracle_run(backbone, sched, z0, record_outputs=True)
        with pytest.raises(ParameterError):
            run(
                backbone, sched, z0,
                PredictorConfig(), SkipConfig(),
                oracle_outputs=ref.surrogates[:-1],
            )


class TestBaselinePolicies:
    def test_fixed_interval_full_count_formula(self):
        backbone, sched, z0 = _setup()
        for interval in (1, 2, 5):
            result = run(
                backbone, sched, z0,
                PredictorConfig(),
                SkipConfig(kind=SkipKind.FIXED_INTERVAL, interval=interval),
            )
            expected = 3 + (50 - 3 - 1) // (interval + 1)
            assert result.full_count == expected

    def test_guided_baselines_run_to_completion(self):
        backbone, sched, z0 = _setup()
        result = run(
            backbone, sched, z0,
            PredictorConfig(),
            SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=0.05),
        )
        assert result.full_count + result.cache_count == 50
        assert 3 <= result.full_count < 50

    @pytest.mark.parametrize("preset", list(Preset))
    def test_input_guided_can_be_tuned_to_a_budget(self, preset):
        """eta reaches at least 20 FULL counts on every preset (96x8, 50
        steps, seed 0), and the count never rises as eta grows: the probe
        accumulates its score over a streak, so a larger eta buys a longer
        streak."""
        backbone, sched, z0 = _setup(preset, seed=0, n_tokens=96, dims=8)
        counts = [
            run(backbone, sched, z0, PredictorConfig(),
                SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=float(eta))).full_count
            for eta in np.logspace(-4, 1, 101)
        ]
        assert len(set(counts)) >= 20, sorted(set(counts))
        assert counts == sorted(counts, reverse=True), counts

    def test_input_guided_at_eta_zero_equals_oracle_bitwise(self):
        backbone, sched, z0 = _setup()
        ref = oracle_run(backbone, sched, z0)
        result = run(backbone, sched, z0, PredictorConfig(),
                     SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=0.0))
        assert result.full_count == 50
        assert result.final_latent == ref.final_latent  # bitwise equality

    def test_input_guided_caches_after_every_full(self):
        # only cached steps add to the total, so a FULL past warmup restarts
        # it at 0 < eta and the next step is cached
        backbone, sched, z0 = _setup(seed=0)
        result = run(backbone, sched, z0, PredictorConfig(),
                     SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=1e-3))
        decisions = [r.decision for r in result.records]
        assert 3 < result.full_count < 50
        for before, after in zip(decisions[3:], decisions[4:]):
            assert not (before is after is Decision.FULL)

    def test_input_guided_scores_the_relative_l1_change_of_the_latent(self):
        backbone, sched, z0 = _setup()
        result = run(backbone, sched, z0, PredictorConfig(),
                     SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=0.05),
                     record_outputs=True)
        z = z0
        for r, y_t, t, t_next in zip(result.records, result.surrogates,
                                     sched.timesteps, sched.timesteps[1:]):
            z_next = sched.step(z, y_t, t, t_next)
            if r.decision is Decision.CACHE:
                change = np.abs(z_next.data - z.data).sum() / np.abs(z.data).sum()
                assert r.e_t == pytest.approx(change, rel=1e-12)
            z = z_next
        assert result.cache_count

    @pytest.mark.parametrize("amplitude", [1e150, 1e300, 1e-160, 1e-300])
    def test_input_guided_at_extreme_amplitudes(self, amplitude):
        """The score is a ratio of L1 sums, so it reads as at amplitude 1
        wherever those sums pass the float range: no NaN and no warning."""
        cfgs = (PredictorConfig(), SkipConfig(kind=SkipKind.INPUT_GUIDED, eta=0.05))
        backbone, sched, z0 = _setup(seed=1, n_tokens=64, dims=8, amplitude=amplitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(backbone, sched, z0, *cfgs)
        scores = [r.e_t for r in result.records]
        assert all(0.0 <= e < math.inf for e in scores)
        assert result.cache_count and np.isfinite(result.final_latent.data).all()

    def test_random_grouping_is_seed_deterministic(self):
        backbone, sched, z0 = _setup()
        cfg = PredictorConfig(kind=PredictorKind.RANDOM_GROUPING, rng_seed=11)
        a = run(backbone, sched, z0, cfg, SkipConfig())
        b = run(backbone, sched, z0, cfg, SkipConfig())
        c = run(
            backbone, sched, z0,
            PredictorConfig(kind=PredictorKind.RANDOM_GROUPING, rng_seed=12),
            SkipConfig(),
        )
        assert a.final_latent == b.final_latent
        assert a.final_latent != c.final_latent


class TestHeldOlderVelocity:
    """After each refresh the loop holds, of the older velocity v_prev, only
    the rows the damped rule reads: the chaotic rows in ascending order under
    chtp and random-grouping, push_full's own array under uniform-damped and
    no row under uniform-reuse and uniform-linear (and in the oracle)."""

    @staticmethod
    def _held(monkeypatch, call):
        """Runs call() and returns its result and (full, group, held) for
        each history the loop hands predict or the next push_full after a
        refresh: full is what push_full made, group the refresh's grouping."""
        state, seen = {"full": None, "group": None}, []

        def push(h, t, y):
            if state["group"] is not None:
                seen.append((state["full"], state["group"], h))
            state["full"], state["group"] = pipeline_push(h, t, y), None
            return state["full"]

        def grouping(fn):
            def wrapper(*args):
                state["group"] = fn(*args)
                return state["group"]
            return wrapper

        def forecast(h, *args):
            seen.append((state["full"], state["group"], h))
            return pipeline_predict(h, *args)

        pipeline_push, pipeline_predict = pipeline.push_full, pipeline.predict
        monkeypatch.setattr(pipeline, "push_full", push)
        monkeypatch.setattr(pipeline, "predict", forecast)
        monkeypatch.setattr(predictor, "group_tokens", grouping(predictor.group_tokens))
        monkeypatch.setattr(predictor, "randomize_groups", grouping(predictor.randomize_groups))
        return call(), seen

    @pytest.mark.parametrize("kind", list(PredictorKind), ids=lambda k: k.value)
    def test_each_kind_keeps_the_rows_its_damped_rule_reads(self, monkeypatch, kind):
        backbone, sched, z0 = _setup()
        cfg = PredictorConfig(kind=kind, rng_seed=3)
        result, seen = self._held(
            monkeypatch, lambda: run(backbone, sched, z0, cfg, SkipConfig(kind=SkipKind.CAS)))
        assert result.cache_count
        # every refresh but one closing the run is seen
        refreshes = result.full_count - (HISTORY_DEPTH - 1)
        assert len({id(full) for full, _, _ in seen}) in (refreshes - 1, refreshes)
        for full, group, held in seen:
            assert held.output is full.output and held.v_latest is full.v_latest
            if kind is PredictorKind.UNIFORM_DAMPED:
                assert held.v_prev is full.v_prev
                continue
            if kind in (PredictorKind.CHTP, PredictorKind.RANDOM_GROUPING):
                rows = np.flatnonzero(group.labels == TokenGroup.CHAOTIC)
            else:
                rows = np.empty(0, dtype=np.intp)
            assert held.v_prev.shape == (rows.size, full.v_prev.dims)
            assert np.array_equal(held.v_prev.data, full.v_prev.data[rows])

    def test_the_oracle_holds_no_older_velocity_and_builds_no_members(self, monkeypatch):
        backbone, sched, z0 = _setup(steps=12)
        result, seen = self._held(monkeypatch, lambda: oracle_run(backbone, sched, z0))
        assert len(seen) == result.full_count - HISTORY_DEPTH
        for full, group, held in seen:
            assert held.v_prev.shape == (0, full.v_prev.dims)
            assert "members" not in vars(group)


def _bits(values) -> bytes:
    """The float64 bits of a tuple of errors, so NaN equals NaN."""
    return np.array(values, dtype=np.float64).tobytes()


def _wide(oracle_y) -> np.ndarray:
    """A reference in either form step_errors takes, as float64 values."""
    if isinstance(oracle_y, TokenMatrix):
        return oracle_y.data
    return oracle_y[0].astype(np.float64)


def _fresh_errors(y, oracle_y, g):
    """step_errors computed in full at every call: a fresh difference, both
    Frobenius norms, and each group's .mean() of the row norms."""
    wide = _wide(oracle_y)
    diff = y.data - wide
    rel = kernels.fro_norm(diff) / (kernels.fro_norm(wide) + 1e-30)
    if g is None:
        return rel, math.nan, math.nan, math.nan
    row_err = kernels.row_norms(diff)
    groups = [g.members[grp] for grp in TokenGroup]
    return (rel, *(float(row_err[rows].mean()) if rows.size else math.nan for rows in groups))


def _replayed(backbone, sched, z0):
    """backbone's oracle cast to one float32 stack, as `record` casts it, and
    the replay backbone, grid and latent built from it."""
    ref = oracle_run(backbone, sched, z0)
    blocks = np.stack([y.data for y in ref.surrogates]).astype(np.float32)
    replay = TraceBackbone(sched.timesteps[: len(blocks)], blocks)
    return replay, EulerScheduler(replay.replay_grid()), replay.initial_latent()


def _references(workload, ref):
    """What a run over workload is scored against, as the CLI scores it: a
    replay's own float32 blocks, else the outputs of ref, its oracle."""
    backbone = workload[0]
    if isinstance(backbone, TraceBackbone):
        return backbone.outputs.references
    return ref.surrogates


class TestStepErrorsShortcut:
    @pytest.mark.parametrize(
        "split", [None, (0.0, 0.7), (0.3, 0.7), (0.0, 1.0)],
        ids=["no-grouping", "empty-stable", "three-groups", "linear-only"],
    )
    def test_self_comparison_has_the_bits_of_the_full_computation(self, split):
        rng = np.random.default_rng(4)
        y = TokenMatrix(rng.normal(size=(10, 3)))
        g = None if split is None else group_tokens(rng.random(10), *split)
        got = step_errors(y, y, g)
        assert _bits(got) == _bits(step_errors(y, TokenMatrix(y.data), g))
        assert _bits(got) == _bits(_fresh_errors(y, y, g))

    def test_replayed_full_steps_read_exactly_zero(self, tmp_path):
        backbone, sched, z0 = _setup(steps=30)
        ref = oracle_run(backbone, sched, z0)
        path = tmp_path / "ref.wct"
        blocks = np.stack([y.data for y in ref.surrogates]).astype(np.float32)
        write_trace(path, TraceBackbone(sched.timesteps[:30], blocks))
        replay = read_trace(path)
        replay_sched = EulerScheduler(replay.replay_grid())
        oracle = oracle_run(replay, replay_sched, replay.initial_latent())
        result = run(
            replay, replay_sched, replay.initial_latent(),
            oracle_outputs=oracle.surrogates,
        )
        full = [r for r in result.records if r.decision is Decision.FULL]
        assert 3 <= len(full) < 30
        assert all(r.rel_err == 0.0 for r in full)


class TestFloat32Reference:
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 5),
        split=st.sampled_from([None, (0.0, 0.7), (0.3, 0.7), (0.0, 1.0), (0.3, 0.3)]),
        y_exp=st.sampled_from([0, -600, 120, 1000]),
        o_exp=st.sampled_from([0, -140, -30, 100]),
        huge=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_and_norm_score_as_the_widened_matrix(
        self, n, d, split, y_exp, o_exp, huge, seed
    ):
        # y - block widens each entry exactly; two forecast entries near
        # 1e308 make the norm overflow, which takes the rescaled path
        rng = np.random.default_rng(seed)
        y = np.ldexp(rng.normal(size=(n, d)), y_exp)
        if huge:
            y.flat[rng.permutation(y.size)[:2]] = 1.5e308
        block = np.ldexp(rng.normal(size=(n, d)), o_exp).astype(np.float32)
        g = None if split is None else group_tokens(rng.random(n), *split)
        wide = TokenMatrix(block)
        pair = (block, kernels.fro_norm(block.astype(np.float64)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step_errors(TokenMatrix(y), pair, g)
        assert _bits(got) == _bits(step_errors(TokenMatrix(y), wide, g))

    def test_a_replay_scores_against_the_trace_as_against_its_oracle(self, tmp_path):
        backbone, sched, z0 = _setup(Preset.TURNPOINT, steps=30)
        path = tmp_path / "ref.wct"
        outputs = oracle_run(backbone, sched, z0).surrogates
        blocks = np.stack([y.data for y in outputs]).astype(np.float32)
        write_trace(path, TraceBackbone(sched.timesteps[:30], blocks))
        replay = read_trace(path)
        replay_sched = EulerScheduler(replay.replay_grid())
        oracle = oracle_run(replay, replay_sched, replay.initial_latent())
        records = []
        for outputs in (oracle.surrogates, replay.outputs.references):
            calls = []

            def spy(y, oracle_y, g):
                calls.append((y, oracle_y))
                return step_errors(y, oracle_y, g)

            with mock.patch.object(pipeline, "step_errors", spy):
                result = run(replay, replay_sched, replay.initial_latent(),
                             PredictorConfig(), SkipConfig(eta=0.3), oracle_outputs=outputs)
            records.append(_bits([
                (r.rel_err, r.stable_err, r.linear_err, r.chaotic_err) for r in result.records
            ]))
        full = [r.step for r in result.records if r.decision is Decision.FULL]
        assert 3 <= len(full) < 30
        # every replayed FULL step is scored against the matrix it emitted
        assert all(calls[i][0] is calls[i][1] for i in full)
        cached = [i for i in range(30) if i not in full]
        assert all(isinstance(calls[i][1], tuple) for i in cached)
        assert records[1] == records[0]


class TestStepErrorsPastTheFloatRange:
    @staticmethod
    def _rel(y, reference):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return step_errors(TokenMatrix(y), TokenMatrix(reference), None)[0]

    @pytest.mark.parametrize("scale", [1.0, 1e10, 1e200, 1e290])
    def test_a_huge_error_against_a_normal_reference_keeps_its_value(self, scale):
        # ||y - y_o|| overflows and ||y_o|| does not; taken at y's scale,
        # ||y_o|| underflows, so rel must not be divided out there
        y = np.zeros((4, 3))
        y.flat[[0, 5]] = 1.5e308
        rel = self._rel(y, np.full((4, 3), scale))
        assert rel == pytest.approx(1.5e308 / math.sqrt(6) / scale, rel=1e-12)
        assert self._rel(y, np.zeros((4, 3))) == math.inf  # past the float range

    def test_both_norms_past_the_float_range_give_their_ratio(self):
        y = np.zeros((4, 3))
        y.flat[[0, 5]] = 1.5e308
        rel = self._rel(y, np.full((4, 3), 1e308))
        assert rel == pytest.approx(math.sqrt(10.5 / 12), rel=1e-12)


class TestOneSummationRule:
    """step_errors squares the difference once, into row sums of squares:
    rel's numerator is the root of their pairwise sum, each row error a root."""

    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 9),
        split=st.sampled_from([None, (0.0, 0.7), (0.3, 0.7), (0.0, 1.0), (0.3, 0.3)]),
        exp=st.integers(-400, 400),
        gap=st.integers(0, 40),
        block=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_errors_follow_the_row_sums_of_the_difference(
        self, n, d, split, exp, gap, block, seed
    ):
        # scales where every sum of squares is normal; a float32 reference
        # block is scored with the norm of its widening, as a trace is
        rng = np.random.default_rng(seed)
        if block:
            exp //= 8
        ref = np.ldexp(rng.normal(size=(n, d)), exp)
        y = ref + np.ldexp(rng.normal(size=(n, d)), exp - gap)
        g = None if split is None else group_tokens(rng.random(n), *split)
        if block:
            ref = ref.astype(np.float32)
            oracle_y = ref, kernels.fro_norm(ref.astype(np.float64))
        else:
            oracle_y = TokenMatrix(ref)
        got = step_errors(TokenMatrix(y), oracle_y, g)
        diff = y - ref
        den = kernels.fro_norm(ref.astype(np.float64))
        rel = math.sqrt(np.add.reduce(kernels.sumsq(diff))) / (den + 1e-30)
        want = [rel, math.nan, math.nan, math.nan]
        if g is not None:
            row_err = kernels.row_norms(diff)
            want[1:] = [row_err[rows].mean() if rows.size else math.nan for rows in g.members]
        assert _bits(got) == _bits(want)

    def test_one_call_with_groups_squares_the_difference_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        y, ref = rng.normal(size=(2, 64, 8))
        g = group_tokens(rng.random(64))
        oracle_y = TokenMatrix(ref)
        oracle_y.fro_norm()  # kept, as a run's reference norm is
        want = step_errors(TokenMatrix(y), oracle_y, g)
        squared, einsum = [], np.einsum

        def counted(subscripts, *operands, **kwargs):
            squared.append(operands[0].size)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        got = step_errors(TokenMatrix(y), oracle_y, g)
        assert sum(squared) == y.size
        assert _bits(got) == _bits(want)


class TestRecordsMatchFreshErrors:
    @given(
        n=st.integers(1, 12),
        d=st.integers(3, 6),
        steps=st.integers(0, 20),
        preset=st.sampled_from(list(Preset)),
        replayed=st.booleans(),
        kind=st.sampled_from(list(SkipKind)),
        p_stable=st.sampled_from([0.0, 0.3]),
        eta=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_record_carries_the_fresh_errors(
        self, n, d, steps, preset, replayed, kind, p_stable, eta, seed
    ):
        workload = _setup(preset, seed=seed, steps=steps, n_tokens=n, dims=d)
        if replayed and steps:
            workload = _replayed(*workload)
        ref = oracle_run(*workload)
        calls = []

        def spy(*args):
            calls.append(args)
            return step_errors(*args)

        with mock.patch.object(pipeline, "step_errors", spy):
            result = run(
                *workload,
                PredictorConfig(p_stable=p_stable),
                SkipConfig(kind=kind, eta=eta),
                oracle_outputs=_references(workload, ref),
            )
        assert len(calls) == len(result.records) == steps
        for r, (y, oracle_y, g), want in zip(result.records, calls, ref.surrogates):
            # the oracle's output, or the float32 block it was widened from
            assert oracle_y is want or _wide(oracle_y).tobytes() == want.data.tobytes()
            got = (r.rel_err, r.stable_err, r.linear_err, r.chaotic_err)
            assert _bits(got) == _bits(_fresh_errors(y, oracle_y, g))


class TestScoreGroups:
    """run(full_records=False), as sweep cells call it, against full records."""

    @given(
        n=st.integers(1, 12),
        d=st.integers(3, 6),
        steps=st.integers(0, 30),
        preset=st.sampled_from(list(Preset)),
        replayed=st.booleans(),
        kind=st.sampled_from(list(SkipKind)),
        predictor=st.sampled_from([PredictorKind.CHTP, PredictorKind.RANDOM_GROUPING]),
        eta=st.floats(0.0, 100.0),  # input-guided caches at large eta
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_rel_only_scoring_leaves_every_other_field_alone(
        self, n, d, steps, preset, replayed, kind, predictor, eta, seed
    ):
        workload = _setup(preset, seed=seed, steps=steps, n_tokens=n, dims=d)
        if replayed and steps:
            workload = _replayed(*workload)
        ref = oracle_run(*workload)
        cfgs = (
            PredictorConfig(kind=predictor, rng_seed=seed),
            SkipConfig(kind=kind, eta=eta),
        )
        full, lean = (
            run(*workload, *cfgs, oracle_outputs=_references(workload, ref),
                full_records=flag)
            for flag in (True, False)
        )
        for a, b in zip(full.records, lean.records, strict=True):
            assert (a.step, a.timestep, a.decision, a.k) == (b.step, b.timestep, b.decision, b.k)
            assert _bits(a.rel_err) == _bits(b.rel_err)
            assert all(math.isnan(e) for e in (b.stable_err, b.linear_err, b.chaotic_err))
            if kind is not SkipKind.FIXED_INTERVAL or b.decision is Decision.FULL:
                assert _bits((a.e_t, a.e_acc)) == _bits((b.e_t, b.e_acc))
            else:  # fixed-interval reads no score
                assert math.isnan(b.e_t) and math.isnan(b.e_acc)
        assert (lean.full_count, lean.cache_count) == (full.full_count, full.cache_count)
        assert lean.final_latent.data.tobytes() == full.final_latent.data.tobytes()
        if steps:
            m_full, m_lean = compare_runs(full, ref), compare_runs(lean, ref)
            assert _bits(m_lean.mean_rel_error) == _bits(m_full.mean_rel_error)
            assert _bits(m_lean.final_latent_rel_error) == _bits(m_full.final_latent_rel_error)

    @pytest.mark.parametrize("kind", list(SkipKind))
    def test_a_cached_step_is_scored_only_where_it_is_read(self, kind, monkeypatch):
        backbone, sched, z0 = _setup(steps=30)
        ref = oracle_run(backbone, sched, z0)
        calls, drift, real = [], [], pipeline.cache_score

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "cache_score", counted)
        monkeypatch.setattr(skipper, "drift_score", lambda *a: drift.append(a) or 0.0)
        cfgs = (PredictorConfig(), SkipConfig(kind=kind, eta=50.0))  # every kind caches
        full = run(backbone, sched, z0, *cfgs, oracle_outputs=ref.surrogates)
        assert full.cache_count and len(calls) == full.cache_count
        # input-guided scores the latent's change, not the drift
        assert len(drift) == (0 if kind is SkipKind.INPUT_GUIDED else full.cache_count)
        calls.clear()
        run(backbone, sched, z0, *cfgs, oracle_outputs=ref.surrogates, full_records=False)
        assert len(calls) == (0 if kind is SkipKind.FIXED_INTERVAL else full.cache_count)
