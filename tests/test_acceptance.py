"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion NN [name] PASS/FAIL`` line through the
shared ``criterion_report`` fixture; the conftest summary hook echoes all of
them after the run. Protocols with trend checks (7, 8, 9) use 20 fixed seeds
and the default 50-step schedule; runtime budgets are asserted alongside the
numeric checks.
"""

import contextlib
import math
import time

import numpy as np

from worldcache import (
    Decision,
    EulerScheduler,
    FullHistory,
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
    TraceFormatError,
    compare_runs,
    compute_curvature,
    group_tokens,
    hermite_alpha,
    oracle_run,
    push_full,
    read_trace,
    run,
    uniform_grid,
    write_trace,
)
from worldcache.cli import main as cli_main
from worldcache.curvature import TokenGroup

LABEL_STABLE, LABEL_LINEAR, LABEL_CHAOTIC = (int(g) for g in TokenGroup)

SEEDS = list(range(1, 21))
STEPS = 50


@contextlib.contextmanager
def _criterion(report, number, name):
    outcome = {"ok": False, "detail": ""}
    try:
        yield outcome
    except BaseException as exc:
        detail = outcome["detail"] or f"raised {type(exc).__name__}: {exc}"
        report(number, name, False, detail)
        raise
    report(number, name, outcome["ok"], outcome["detail"])
    assert outcome["ok"], f"criterion {number} [{name}]: {outcome['detail']}"


def _history(mats, values=(3.0, 2.0, 1.0)):
    h = FullHistory()
    for i, (t, m) in enumerate(zip(values, mats)):
        h = push_full(h, Timestep(value=float(t), index=i), TokenMatrix(m))
    return h


# Oracle runs on the default mixed workload are shared between the trend
# criteria; they are deterministic per seed, so caching changes nothing.
_MIXED_CACHE: dict[int, tuple] = {}


def _mixed_setup(seed):
    if seed not in _MIXED_CACHE:
        backbone = SyntheticBackbone(SyntheticSpec(preset=Preset.MIXED, seed=seed))
        scheduler = EulerScheduler(uniform_grid(STEPS))
        z0 = backbone.initial_latent()
        ref = oracle_run(backbone, scheduler, z0)
        _MIXED_CACHE[seed] = (backbone, scheduler, z0, ref)
    return _MIXED_CACHE[seed]


def _mixed_policy_run(seed, pkind, skind, eta=0.2, interval=5,
                      rng_seed=None, cap=True):
    backbone, scheduler, z0, ref = _mixed_setup(seed)
    cached = run(
        backbone, scheduler, z0,
        PredictorConfig(kind=pkind, rng_seed=rng_seed),
        SkipConfig(kind=skind, eta=eta, interval=interval,
                   enforce_streak_cap=cap),
        oracle_outputs=ref.surrogates,
    )
    return compare_runs(cached, ref), cached


def test_criterion_01_rescale_invariance(criterion_report):
    # kappa * |surrogate displacement| per token must not move under a global
    # feature rescale y -> s*y (exactly at eps=0, approximately at eps=1e-8).
    with _criterion(criterion_report, 1, "rescale-invariance") as out:
        rng = np.random.default_rng(20240817)
        scales = (0.5, 2.0, 10.0)
        worst = {0.0: 0.0, 1e-8: 0.0}
        t0 = time.perf_counter()
        for _ in range(100):
            mats = rng.normal(size=(3, 256, 16))
            disp_a = rng.normal(size=(256, 16))
            disp_b = rng.normal(size=(256, 16))
            base_hist = _history(mats)
            v2 = np.einsum("ij,ij->i", base_hist.v_latest.data,
                           base_hist.v_latest.data)
            assert v2.min() >= 1e-2  # protocol precondition
            base_disp = np.linalg.norm(disp_a - disp_b, axis=1)
            for eps in worst:
                base = compute_curvature(base_hist, eps=eps) * base_disp
                for s in scales:
                    hist = _history([s * m for m in mats])
                    disp = np.linalg.norm(s * disp_a - s * disp_b, axis=1)
                    prod = compute_curvature(hist, eps=eps) * disp
                    dev = float(np.max(np.abs(prod - base) / base))
                    worst[eps] = max(worst[eps], dev)
        elapsed = time.perf_counter() - t0
        ok = worst[0.0] <= 1e-12 and worst[1e-8] <= 1e-4 and elapsed < 1.0
        out["ok"] = ok
        out["detail"] = (
            f"max dev {worst[0.0]:.2e} @eps=0, {worst[1e-8]:.2e} @eps=1e-8, "
            f"{elapsed:.2f}s"
        )


def test_criterion_02_degenerate_thresholds(criterion_report):
    with _criterion(criterion_report, 2, "degenerate-thresholds") as out:
        backbone = SyntheticBackbone(SyntheticSpec(preset=Preset.MIXED, seed=7))
        scheduler = EulerScheduler(uniform_grid(STEPS))
        z0 = backbone.initial_latent()

        t0 = time.perf_counter()
        ref = oracle_run(backbone, scheduler, z0)
        zero = run(backbone, scheduler, z0, PredictorConfig(),
                   SkipConfig(eta=0.0))
        t_zero = time.perf_counter() - t0
        bit_identical = np.array_equal(zero.final_latent.data,
                                       ref.final_latent.data)

        t0 = time.perf_counter()
        inf = run(backbone, scheduler, z0, PredictorConfig(),
                  SkipConfig(eta=math.inf, enforce_streak_cap=False))
        t_inf = time.perf_counter() - t0

        ok = (bit_identical and zero.full_count == STEPS
              and inf.full_count == 3 and t_zero < 1.0 and t_inf < 1.0)
        out["ok"] = ok
        out["detail"] = (
            f"eta=0 bit-identical={bit_identical} fulls={zero.full_count}, "
            f"eta=inf fulls={inf.full_count}, {t_zero:.2f}s/{t_inf:.2f}s"
        )


def test_criterion_03_curvature_exactness(criterion_report):
    with _criterion(criterion_report, 3, "curvature-exactness") as out:
        rng = np.random.default_rng(3)
        worst_affine = 0.0
        for _ in range(50):
            a = rng.normal(scale=3.0, size=(64, 16))
            b = rng.normal(size=(64, 16))
            mats = [a + b * t for t in (7.0, 5.0, 2.0)]
            kappa = compute_curvature(_history(mats, values=(7.0, 5.0, 2.0)))
            worst_affine = max(worst_affine, float(kappa.max()))

        # y = t^2 at t = 3, 2, 1: velocities 5 then 3, acceleration 2,
        # so kappa = 2 / (3^2 + eps)
        quad = _history([[[9.0]], [[4.0]], [[1.0]]])
        kq = float(compute_curvature(quad)[0])
        expected = 2.0 / (9.0 + 1e-8)
        quad_dev = abs(kq - expected)

        ok = worst_affine <= 1e-12 and quad_dev <= 1e-12
        out["ok"] = ok
        out["detail"] = (
            f"max affine kappa {worst_affine:.2e}, quadratic dev {quad_dev:.2e}"
        )


def test_criterion_04_grouping_counts(criterion_report):
    with _criterion(criterion_report, 4, "grouping-counts") as out:
        rng = np.random.default_rng(4)
        checked = 0
        ok = True
        for n in (1, 4, 10, 1000):
            # integer-arithmetic oracle for the default 0.3/0.7 percentiles
            want_stable = 3 * n // 10
            want_chaotic = (3 * n + 9) // 10
            for _ in range(50):
                g = group_tokens(rng.random(n))
                labels = np.asarray(g.labels)
                n_stable = int(np.count_nonzero(labels == LABEL_STABLE))
                n_chaotic = int(np.count_nonzero(labels == LABEL_CHAOTIC))
                n_linear = int(np.count_nonzero(labels == LABEL_LINEAR))
                good = (
                    n_stable == want_stable
                    and n_chaotic == want_chaotic
                    and labels.shape == (n,)
                    and n_stable + n_linear + n_chaotic == n
                )
                ok = ok and good
                checked += 1
        out["ok"] = ok
        out["detail"] = f"{checked} grouping calls over N in {{1,4,10,1000}}"


def test_criterion_05_hermite_schedule(criterion_report):
    with _criterion(criterion_report, 5, "hermite-schedule") as out:
        midpoint = hermite_alpha(3, 6)
        alphas = [hermite_alpha(k, 6) for k in range(1, 13)]
        monotone = all(b >= a for a, b in zip(alphas, alphas[1:]))
        saturated = all(hermite_alpha(k, 6) == 1.0 for k in range(6, 13))
        ok = midpoint == 0.5 and monotone and saturated
        out["ok"] = ok
        out["detail"] = (
            f"alpha(3,6)={midpoint}, monotone={monotone}, "
            f"saturated k>=6: {saturated}"
        )


def test_criterion_06_linear_exactness(criterion_report):
    with _criterion(criterion_report, 6, "linear-exactness") as out:
        worst = 0.0
        t0 = time.perf_counter()
        for seed in SEEDS[:3]:
            spec = SyntheticSpec(preset=Preset.SMOOTH, seed=seed,
                                 noise_sigma=0.0, coupling=0.0)
            backbone = SyntheticBackbone(spec)
            scheduler = EulerScheduler(uniform_grid(STEPS))
            z0 = backbone.initial_latent()
            ref = oracle_run(backbone, scheduler, z0)
            for eta in (0.0, 0.2, math.inf):
                cached = run(
                    backbone, scheduler, z0,
                    PredictorConfig(kind=PredictorKind.CHTP),
                    SkipConfig(eta=eta,
                               enforce_streak_cap=not math.isinf(eta)),
                    oracle_outputs=ref.surrogates,
                )
                worst = max(worst,
                            compare_runs(cached, ref).final_latent_rel_error)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 1.0
        out["ok"] = ok
        out["detail"] = f"worst final rel err {worst:.2e}, {elapsed:.2f}s"


def test_criterion_07_damped_vs_linear(criterion_report):
    # On reversal-heavy trajectories the streak-damped branch must beat raw
    # linear extrapolation on chaotic-row error at every streak length 3..6.
    with _criterion(criterion_report, 7, "damped-vs-linear") as out:
        t0 = time.perf_counter()
        wins = 0
        for seed in SEEDS:
            spec = SyntheticSpec(preset=Preset.TURNPOINT, turn_step=7,
                                 seed=seed)
            backbone = SyntheticBackbone(spec)
            scheduler = EulerScheduler(uniform_grid(STEPS))
            z0 = backbone.initial_latent()
            ref = oracle_run(backbone, scheduler, z0)
            cums = {}
            for pkind in (PredictorKind.CHTP, PredictorKind.UNIFORM_LINEAR):
                cached = run(
                    backbone, scheduler, z0,
                    PredictorConfig(kind=pkind),
                    SkipConfig(kind=SkipKind.FIXED_INTERVAL, interval=6),
                    oracle_outputs=ref.surrogates,
                )
                cum = {k: 0.0 for k in range(1, 7)}
                for r in cached.records:
                    if r.decision == Decision.CACHE and not math.isnan(r.chaotic_err):
                        cum[r.k] += r.chaotic_err
                cums[pkind] = cum
            wins += all(
                cums[PredictorKind.CHTP][k] < cums[PredictorKind.UNIFORM_LINEAR][k]
                for k in (3, 4, 5, 6)
            )
        elapsed = time.perf_counter() - t0
        ok = wins == len(SEEDS) and elapsed < 5.0
        out["ok"] = ok
        out["detail"] = (
            f"strict win at k=3..6 on {wins}/{len(SEEDS)} seeds, {elapsed:.2f}s"
        )


def test_criterion_08_adaptive_vs_fixed(criterion_report):
    with _criterion(criterion_report, 8, "adaptive-vs-fixed") as out:
        t0 = time.perf_counter()

        def fi_count(i):
            # warmup fulls plus one forced full per (interval+1) steps
            return 3 + (STEPS - 3 - 1) // (i + 1)

        wins = 0
        max_mismatch = 0
        for seed in SEEDS:
            mc, _ = _mixed_policy_run(seed, PredictorKind.CHTP, SkipKind.CAS,
                                      eta=0.2)
            best = min(range(1, STEPS - 2),
                       key=lambda i: (abs(fi_count(i) - mc.full_count),
                                      -fi_count(i)))
            mf, _ = _mixed_policy_run(seed, PredictorKind.CHTP,
                                      SkipKind.FIXED_INTERVAL, interval=best)
            max_mismatch = max(max_mismatch,
                               abs(mf.full_count - mc.full_count))
            wins += mc.final_latent_rel_error <= mf.final_latent_rel_error

        etas = [0.35, 0.3, 0.25, 0.2, 0.15, 0.1]
        mean_err, mean_ratio = [], []
        for eta in etas:
            ms = [_mixed_policy_run(s, PredictorKind.CHTP, SkipKind.CAS,
                                    eta=eta)[0] for s in SEEDS]
            mean_err.append(float(np.mean([m.final_latent_rel_error
                                           for m in ms])))
            mean_ratio.append(float(np.mean([m.full_ratio for m in ms])))
        err_mono = all(b <= a + 1e-15 for a, b in zip(mean_err, mean_err[1:]))
        ratio_mono = all(b >= a - 1e-15
                         for a, b in zip(mean_ratio, mean_ratio[1:]))

        elapsed = time.perf_counter() - t0
        ok = (wins >= 16 and max_mismatch <= 1 and err_mono and ratio_mono
              and elapsed < 30.0)
        out["ok"] = ok
        out["detail"] = (
            f"adaptive<=fixed on {wins}/20 seeds (budget mismatch<="
            f"{max_mismatch} full), err mono={err_mono}, "
            f"ratio mono={ratio_mono}, {elapsed:.1f}s"
        )


def test_criterion_09_predictor_ordering(criterion_report):
    with _criterion(criterion_report, 9, "predictor-ordering") as out:
        t0 = time.perf_counter()
        base = {
            seed: _mixed_policy_run(seed, PredictorKind.CHTP,
                                    SkipKind.CAS)[0].final_latent_rel_error
            for seed in SEEDS
        }
        baselines = (
            PredictorKind.UNIFORM_REUSE,
            PredictorKind.UNIFORM_LINEAR,
            PredictorKind.UNIFORM_DAMPED,
            PredictorKind.RANDOM_GROUPING,
        )
        wins = {}
        errors = {}
        for pk in baselines:
            errors[pk] = {
                seed: _mixed_policy_run(
                    seed, pk, SkipKind.CAS, rng_seed=seed,
                )[0].final_latent_rel_error
                for seed in SEEDS
            }
            wins[pk] = {s for s in SEEDS if base[s] < errors[pk][s]}

        # random grouping must never beat the curvature-informed grouping:
        # the gain has to come from where tokens land, not from the mix of
        # per-group operators (which random grouping shares)
        rg_clean = all(
            errors[PredictorKind.RANDOM_GROUPING][s] >= base[s]
            for s in SEEDS
        )
        counts = {pk.value: len(wins[pk]) for pk in baselines}
        elapsed = time.perf_counter() - t0
        ok = (all(c >= 16 for c in counts.values()) and rg_clean
              and elapsed < 30.0)
        out["ok"] = ok
        out["detail"] = (
            "wins "
            + " ".join(f"{k}={v}/20" for k, v in counts.items())
            + f", random never beats={rg_clean}, {elapsed:.1f}s"
        )


def test_criterion_10_accumulator_semantics(criterion_report):
    with _criterion(criterion_report, 10, "accumulator-semantics") as out:
        checked_streak_steps = 0
        ok = True
        for skind, kwargs in (
            (SkipKind.CAS, {"eta": 0.2}),
            (SkipKind.FIXED_INTERVAL, {"interval": 6}),
        ):
            _, cached = _mixed_policy_run(7, PredictorKind.CHTP, skind,
                                          **kwargs)
            prev = None
            for r in cached.records:
                if r.decision == Decision.FULL:
                    ok = ok and r.k == 0 and r.e_acc == 0.0
                else:
                    if prev is not None and prev.decision == Decision.CACHE:
                        ok = ok and r.e_acc >= prev.e_acc
                        checked_streak_steps += 1
                prev = r
            ok = ok and cached.cache_count > 0
        out["ok"] = ok and checked_streak_steps > 0
        out["detail"] = (
            f"{checked_streak_steps} in-streak transitions non-decreasing, "
            "FULL records read k=0 E_acc=0"
        )


def test_criterion_11_trace_format(criterion_report, tmp_path):
    with _criterion(criterion_report, 11, "trace-format") as out:
        rng = np.random.default_rng(11)
        blocks = rng.normal(size=(5, 6, 3)).astype(np.float32)
        ts = [5.0, 4.0, 3.0, 2.0, 1.0]
        path = tmp_path / "rt.wct"
        write_trace(path, TraceBackbone(ts, blocks))
        loaded = read_trace(path)
        round_trip = (
            list(map(float, loaded.timesteps)) == ts
            and all(
                np.array_equal(m.data, b.astype(np.float64))
                for m, b in zip(loaded.outputs, blocks)
            )
        )

        raw = path.read_bytes()
        messages = []
        for mutate, keyword in (
            (lambda b: b"X" + b[1:], "magic"),
            (lambda b: b[:-20], "payload"),
            (lambda b: b[:28] + b[20:28] + b[36:], "decreasing"),
        ):
            bad = tmp_path / f"bad-{keyword}.wct"
            bad.write_bytes(mutate(raw))
            try:
                read_trace(bad)
                messages.append(None)
            except TraceFormatError as exc:
                messages.append(str(exc))
        distinct = (
            None not in messages
            and len(set(messages)) == 3
            and all(k in m for k, m in zip(("magic", "payload", "decreasing"),
                                           messages))
        )

        # record an oracle trajectory, replay it, compare at f32 precision
        backbone = SyntheticBackbone(
            SyntheticSpec(preset=Preset.MIXED, seed=11, n_tokens=8, dims=4))
        scheduler = EulerScheduler(uniform_grid(12))
        z0 = backbone.initial_latent()
        ref = oracle_run(backbone, scheduler, z0)
        rec = tmp_path / "rec.wct"
        stack = np.stack([m.data for m in ref.surrogates]).astype(np.float32)
        write_trace(rec, TraceBackbone(scheduler.timesteps[:12], stack))
        replay_backbone = read_trace(rec)
        replay = oracle_run(
            replay_backbone, EulerScheduler(replay_backbone.replay_grid()), z0)
        surrogates_match = all(
            np.array_equal(a.data,
                           o.data.astype(np.float32).astype(np.float64))
            for a, o in zip(replay.surrogates, ref.surrogates)
        )
        final_drift = float(np.max(np.abs(replay.final_latent.data
                                          - ref.final_latent.data)))
        replay_ok = surrogates_match and final_drift <= 1e-5

        out["ok"] = round_trip and distinct and replay_ok
        out["detail"] = (
            f"round-trip={round_trip}, distinct errors={distinct}, "
            f"replay matches f32 rounding={surrogates_match} "
            f"(final drift {final_drift:.1e})"
        )


def test_criterion_12_manifest_determinism(criterion_report, tmp_path):
    with _criterion(criterion_report, 12, "manifest-determinism") as out:
        run_a, run_b = tmp_path / "ra", tmp_path / "rb"
        rc1 = cli_main(["run", "--seed", "9", "--steps", "30",
                        "--out", str(run_a), "--run-id", "acc"])
        rc2 = cli_main(["run", "--config", str(run_a / "acc.manifest.ini"),
                        "--out", str(run_b)])
        run_same = all(
            (run_a / name).read_bytes() == (run_b / name).read_bytes()
            for name in ("acc.steps.csv", "acc.metrics.csv")
        )

        sw_a, sw_b = tmp_path / "sa", tmp_path / "sb"
        rc3 = cli_main(["sweep", "--seed", "1", "--seeds", "4,5",
                        "--set", "sweep.eta=0.15,0.25", "--steps", "20",
                        "--out", str(sw_a), "--run-id", "accs"])
        rc4 = cli_main(["sweep", "--config", str(sw_a / "accs.manifest.ini"),
                        "--out", str(sw_b)])
        sweep_same = (sw_a / "accs.sweep.csv").read_bytes() == \
            (sw_b / "accs.sweep.csv").read_bytes()

        ok = (rc1 == rc2 == rc3 == rc4 == 0) and run_same and sweep_same
        out["ok"] = ok
        out["detail"] = (
            f"run CSVs identical={run_same}, sweep CSV identical={sweep_same}"
        )


def _first_run_per_full_count(backbone, scheduler, z0, ref, kind, etas):
    """FULL count -> (eta, final rel err, max per-step rel err) of the
    smallest eta that reaches it."""
    by_count = {}
    for eta in etas:
        cached = run(backbone, scheduler, z0, PredictorConfig(),
                     SkipConfig(kind=kind, eta=eta), oracle_outputs=ref.surrogates)
        if cached.full_count not in by_count:
            m = compare_runs(cached, ref)
            by_count[cached.full_count] = (
                eta, m.final_latent_rel_error, max(r.rel_err for r in cached.records),
            )
    return by_count


def test_criterion_13_probe_vs_cas(criterion_report):
    """CAS against the input-guided probe over one eta grid at the FULL
    counts both reach, on mixed and turnpoint (96x8, 50 steps, seed 0). It
    reports the final and the largest per-step error of each; it asserts
    only that both can be compared at several budgets, not who wins."""
    with _criterion(criterion_report, 13, "probe-vs-cas") as out:
        t0 = time.perf_counter()
        grid = [float(v) for v in np.logspace(-4, 1, 101)]
        rows, summary, ok = [], [], True
        for preset in (Preset.MIXED, Preset.TURNPOINT):
            backbone = SyntheticBackbone(
                SyntheticSpec(preset=preset, seed=0, n_tokens=96, dims=8))
            scheduler = EulerScheduler(uniform_grid(STEPS))
            z0 = backbone.initial_latent()
            ref = oracle_run(backbone, scheduler, z0)
            cas, probe = (
                _first_run_per_full_count(backbone, scheduler, z0, ref, kind, grid)
                for kind in (SkipKind.CAS, SkipKind.INPUT_GUIDED)
            )
            matched = sorted(cas.keys() & probe.keys())
            wins = 0
            for count in matched:
                (c_eta, c_final, c_max), (p_eta, p_final, p_max) = cas[count], probe[count]
                ok = ok and all(map(math.isfinite, (c_final, c_max, p_final, p_max)))
                wins += p_final < c_final
                rows.append(
                    f"{preset.value:>9} {count:4d}  eta={c_eta:<8.3g} {c_final:9.2e} "
                    f"{c_max:9.2e}  eta={p_eta:<8.3g} {p_final:9.2e} {p_max:9.2e}"
                )
            ok = ok and len(matched) >= 5
            summary.append(f"{preset.value} {wins}/{len(matched)}")
        elapsed = time.perf_counter() - t0
        out["ok"] = ok and elapsed < 30.0
        header = (f"{'preset':>9} FULL  {'CAS':<12} {'final':>9} {'max':>9}  "
                  f"{'probe':<12} {'final':>9} {'max':>9}")
        out["detail"] = (
            f"probe final < CAS final at matched FULL counts: {', '.join(summary)}, "
            f"{elapsed:.1f}s\n" + "\n".join(["  " + header, *("  " + r for r in rows)])
        )
