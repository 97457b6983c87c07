"""Peak memory of the loop, of the synthetic backbone, of `record` and of the
trace readers, under tracemalloc.

A cached run keeps the newest FULL output, its velocity and, of the older
velocity, only the rows the damped forecast reads (none in the oracle), not
the three outputs they were taken from, and lets go of its last forecast
before a FULL step calls the backbone; the backbone's output enters the
package without a copy (`TokenMatrix.adopt`). `record` casts each oracle output into one
float32 array as it is made, so it holds the trace's float32 payload and no
float64 outputs. The loop's, the backbone's and the trace sweep's bounds are
in output-sized matrices (n_tokens x dims float64), with at least a tenth of
a matrix of headroom. The trace readers read one float32 block at a time, so
neither holds the file's bytes: `read_trace` keeps its float32 payload and
widens one block at a time, `validate_trace` peaks at a few blocks.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from worldcache import (
    EulerScheduler,
    PredictorConfig,
    PredictorKind,
    Preset,
    SkipConfig,
    SyntheticBackbone,
    SyntheticSpec,
    TraceBackbone,
    oracle_run,
    read_trace,
    run,
    uniform_grid,
    validate_trace,
    write_trace,
)
from worldcache.cli import main
from worldcache.skipper import DEFAULT_ETA

N_TOKENS, DIMS, STEPS = 1024, 64, 20
MATRIX = N_TOKENS * DIMS * 8


@contextlib.contextmanager
def _tracing():
    """Traces allocations (unless tracing already) and yields the bytes
    traced when it began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()


def _traced_peak(fn, *args, **kwargs) -> int:
    """Bytes allocated at the peak of fn(*args, **kwargs), over what was
    traced when it began."""
    with _tracing() as base:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base


def _backbone(preset=Preset.MIXED):
    return SyntheticBackbone(
        SyntheticSpec(n_tokens=N_TOKENS, dims=DIMS, preset=preset, seed=1)
    )


def _mixed():
    backbone = _backbone()
    return backbone, EulerScheduler(uniform_grid(STEPS)), backbone.initial_latent()


# The oracle reads 5.11 matrices and a default cached run 5.36; 6.05 and 6.07
# while the loop held every row of the older velocity.
def test_oracle_run_peak_is_at_most_five_and_a_half_matrices():
    peak = _traced_peak(oracle_run, *_mixed(), record_outputs=False)
    assert peak / MATRIX <= 5.5


# A cached run's peak per predictor kind (rng_seed 3) and drift budget, with
# the reading beside each bound. Uniform-damped holds every row of the older
# velocity, and its blend builds the forecast in place of gathering and
# scattering whole matrices (7.05 when it did). At the default budget only
# random-grouping's streaks run past one cached step, where the last forecast
# is held beside the next; chtp's do at eta 0.8 (FFFccFccccFccccccFcc). Both
# read 6.26 while drift_mean held a third chaotic-sized row set.
# Uniform-reuse's forecast is the FULL output itself.
_CACHED_RUN_BOUND = {
    "chtp": (PredictorKind.CHTP, DEFAULT_ETA, 5.5),                        # 5.36
    "uniform-reuse": (PredictorKind.UNIFORM_REUSE, DEFAULT_ETA, 5.25),     # 5.13
    "uniform-linear": (PredictorKind.UNIFORM_LINEAR, DEFAULT_ETA, 5.25),   # 5.13
    "uniform-damped": (PredictorKind.UNIFORM_DAMPED, DEFAULT_ETA, 6.15),   # 6.05
    "random-grouping": (PredictorKind.RANDOM_GROUPING, DEFAULT_ETA, 6.06), # 5.96
    "chtp-eta0.8": (PredictorKind.CHTP, 0.8, 6.06),                        # 5.96
}


@pytest.mark.parametrize("case", list(_CACHED_RUN_BOUND))
def test_cached_run_peak_is_at_most_its_kinds_bound(case):
    kind, eta, bound = _CACHED_RUN_BOUND[case]
    peak = _traced_peak(run, *_mixed(), PredictorConfig(kind=kind, rng_seed=3),
                        SkipConfig(eta=eta))
    assert peak / MATRIX <= bound


class _Held:
    """Wraps a backbone and notes the traced bytes alive at each call."""

    def __init__(self, backbone):
        self.backbone, self.held = backbone, []

    def evaluate(self, z, t):
        self.held.append(tracemalloc.get_traced_memory()[0])
        return self.backbone.evaluate(z, t)


def test_a_full_step_calls_the_backbone_holding_only_the_latent_and_the_history():
    backbone, scheduler, z_init = _mixed()
    held = _Held(backbone)
    with _tracing() as base:
        result = run(held, scheduler, z_init)
    assert 0 < result.cache_count and result.full_count == len(held.held)
    # the latent, the newest output, its velocity and the chaotic 30% of the
    # older one: no forecast (3.36 matrices; 4.06 with all of the older one)
    assert max(held.held) - base <= 3.5 * MATRIX


# The output plus the largest block temporary (the 40% linear block, and on
# mixed numpy's buffer for a broadcast product); 2.13 when the output was copied.
_EVALUATE_BOUND = {Preset.SMOOTH: 1.6, Preset.TURNPOINT: 1.6, Preset.MIXED: 1.65}


@pytest.mark.parametrize("preset", list(Preset), ids=lambda p: p.value)
def test_evaluate_peak_is_its_output_and_one_block(preset):
    backbone = _backbone(preset)
    z = backbone.initial_latent()
    peak = max(_traced_peak(backbone.evaluate, z, t) for t in uniform_grid(STEPS)[::7])
    assert peak / MATRIX <= _EVALUATE_BOUND[preset]


_N, _D, _STEPS = 256, 32, 40
_PAYLOAD, _MATRIX = _STEPS * _N * _D * 4, _N * _D * 8  # float32 trace, float64 output


def test_record_peak_is_its_float32_payload_plus_a_few_matrices(tmp_path):
    # 12.9 matrices over the payload: the mixed backbone's own arrays (about
    # 5) and the oracle loop's working set; 31.1 when it kept every output.
    # A first call in a fresh process also counts modules imported lazily.
    path = tmp_path / "t.wct"
    argv = ["record", str(path), "--n-tokens", str(_N), "--dims", str(_D),
            "--steps", str(_STEPS), "--seed", "1", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        peak = _traced_peak(main, argv)
    assert path.exists()
    assert peak < _PAYLOAD + 13.5 * _MATRIX


def test_trace_sweep_peak_is_its_float32_payload_and_a_cells_loop(tmp_path):
    # the replayed trace stays float32; what remains is the reference's
    # latents and one widened block, and a cell's loop: 11.8-12.0 matrices
    # over the payload, against 29.1 when the trace was widened on read
    path = tmp_path / "t.wct"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["record", str(path), "--preset", "turnpoint", "--n-tokens", str(_N),
                     "--dims", str(_D), "--steps", str(_STEPS), "--seed", "1"]) == 0
        argv = ["sweep", "--set", "workload.kind=trace", "--set", f"workload.trace_path={path}",
                "--set", "sweep.eta=0.05,0.2,0.8", "--set", "sweep.skipper=cas,fixed-interval",
                "--seeds", "1", "--out", str(tmp_path), "--run-id", "sw"]
        assert main(argv) == 0  # imports what a sweep imports lazily
        peak = _traced_peak(main, argv)
    assert peak <= _PAYLOAD + 12.25 * _MATRIX


def _trace(tmp_path):
    blocks = np.random.default_rng(2).normal(size=(_STEPS, _N, _D)).astype(np.float32)
    path = tmp_path / "t.wct"
    write_trace(path, TraceBackbone([float(_STEPS - i) for i in range(_STEPS)], blocks))
    return path, blocks[0].nbytes


def test_read_trace_peak_is_its_float32_payload_plus_an_eighth(tmp_path):
    path, _ = _trace(tmp_path)
    assert _traced_peak(read_trace, path) <= _PAYLOAD * 9 / 8


def test_validate_trace_peak_is_a_few_blocks(tmp_path):
    path, block = _trace(tmp_path)
    assert _traced_peak(validate_trace, path) <= 4 * block
