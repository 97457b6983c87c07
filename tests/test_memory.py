"""Peak memory of the loop and of `record`, under tracemalloc.

A cached run keeps the newest FULL output and two velocities, not the three
outputs they were taken from; `record` writes the oracle's outputs without a
stacked float64 or float32 copy of them. The bounds are in output-sized
matrices (n_tokens x dims float64), with about one matrix of headroom.
"""

import contextlib
import io
import tracemalloc

from worldcache import (
    EulerScheduler,
    Preset,
    SyntheticBackbone,
    SyntheticSpec,
    oracle_run,
    run,
    uniform_grid,
)
from worldcache.cli import main

N_TOKENS, DIMS, STEPS = 1024, 64, 20
MATRIX = N_TOKENS * DIMS * 8


def _traced_peak(fn, *args, **kwargs) -> int:
    """Bytes allocated at the peak of fn(*args, **kwargs), over what was
    traced when it began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _mixed():
    backbone = SyntheticBackbone(
        SyntheticSpec(n_tokens=N_TOKENS, dims=DIMS, preset=Preset.MIXED, seed=1)
    )
    return backbone, EulerScheduler(uniform_grid(STEPS)), backbone.initial_latent()


def test_oracle_run_peak_is_at_most_seven_matrices():
    peak = _traced_peak(oracle_run, *_mixed(), record_outputs=False)
    assert peak / MATRIX <= 7.0


def test_cached_run_peak_is_at_most_eight_matrices():
    peak = _traced_peak(run, *_mixed())
    assert peak / MATRIX <= 8.0


def test_record_peak_is_below_its_outputs_plus_the_file(tmp_path):
    n_tokens, dims, steps = 256, 32, 40
    path = tmp_path / "t.wct"
    argv = ["record", str(path), "--n-tokens", str(n_tokens), "--dims", str(dims),
            "--steps", str(steps), "--seed", "1", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _traced_peak(main, argv)
    assert path.exists()
    outputs = steps * n_tokens * dims * 8  # the oracle's float64 outputs
    assert peak < outputs + path.stat().st_size
