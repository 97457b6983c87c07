"""Peak memory of the loop, of `record` and of the trace readers, under
tracemalloc.

A cached run keeps the newest FULL output and two velocities, not the three
outputs they were taken from; `record` writes the oracle's outputs without a
stacked float64 or float32 copy of them. The loop's bounds are in
output-sized matrices (n_tokens x dims float64), with about one matrix of
headroom. The trace readers read one float32 block at a time, so neither
holds the file's bytes: `read_trace` peaks at its float64 payload plus a
block, `validate_trace` at a few blocks.
"""

import contextlib
import io
import tracemalloc

import numpy as np

from worldcache import (
    EulerScheduler,
    Preset,
    SyntheticBackbone,
    SyntheticSpec,
    oracle_run,
    read_trace,
    run,
    uniform_grid,
    validate_trace,
    write_trace,
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


def _trace(tmp_path, n_tokens=256, dims=32, steps=40):
    blocks = np.random.default_rng(2).normal(size=(steps, n_tokens, dims)).astype(np.float32)
    path = tmp_path / "t.wct"
    write_trace(path, [float(steps - i) for i in range(steps)], blocks)
    return path, blocks[0].nbytes, blocks.size * 8


def test_read_trace_peak_is_its_float64_payload_plus_an_eighth(tmp_path):
    path, _, payload = _trace(tmp_path)
    assert _traced_peak(read_trace, path) <= payload * 9 / 8


def test_validate_trace_peak_is_a_few_blocks(tmp_path):
    path, block, _ = _trace(tmp_path)
    assert _traced_peak(validate_trace, path) <= 4 * block
