import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from worldcache import (
    DimensionError,
    EulerScheduler,
    FullHistory,
    Modality,
    ParameterError,
    Preset,
    SyntheticBackbone,
    SyntheticSpec,
    Timestep,
    TokenGroup,
    TokenMatrix,
    TraceBackbone,
    TraceFormatError,
    compute_curvature,
    group_tokens,
    oracle_run,
    push_full,
    read_trace,
    uniform_grid,
    validate_trace,
    write_trace,
)
from worldcache.backbone_sim import cast_block
from worldcache.cli import main
from worldcache.errors import OrderingError

F32_MAX = float(np.finfo(np.float32).max)


def _patch(raw: bytes, at: int, new: bytes) -> bytes:
    return raw[:at] + new + raw[at + len(new):]


def _ts(value, index=0):
    return Timestep(value=float(value), index=index)


def _probe_outputs(backbone, values):
    z = backbone.initial_latent()
    return [backbone.evaluate(z, _ts(v, i)) for i, v in enumerate(values)]


class TestSyntheticSpecValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(fractions=(0.5, 0.5, 0.5), seed=0)

    def test_fractions_must_be_nonnegative(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(fractions=(1.2, -0.2, 0.0), seed=0)

    def test_mixed_needs_three_dims(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(preset=Preset.MIXED, dims=2, seed=0)
        SyntheticSpec(preset=Preset.SMOOTH, dims=2, seed=0)  # smooth is fine

    def test_preset_accepts_strings(self):
        spec = SyntheticSpec(preset="turnpoint", seed=0)
        assert spec.preset is Preset.TURNPOINT
        with pytest.raises(ParameterError):
            SyntheticSpec(preset="wavy", seed=0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(n_tokens=0, seed=0)
        with pytest.raises(ParameterError):
            SyntheticSpec(dims=0, seed=0)


class TestSyntheticBackbone:
    def test_all_stable_is_constant_in_t(self):
        spec = SyntheticSpec(
            fractions=(1.0, 0.0, 0.0), noise_sigma=0.0, seed=3
        )
        backbone = SyntheticBackbone(spec)
        outs = _probe_outputs(backbone, [50, 37, 12, 1])
        for m in outs[1:]:
            assert m == outs[0]

    def test_all_linear_rows_have_zero_curvature(self):
        # smooth preset: the linear regime is exactly affine in t (the mixed
        # preset's middle regime carries a calibrated gentle bend instead)
        spec = SyntheticSpec(
            preset=Preset.SMOOTH,
            fractions=(0.0, 1.0, 0.0), noise_sigma=0.0, coupling=0.0, seed=5,
        )
        backbone = SyntheticBackbone(spec)
        h = FullHistory()
        z = backbone.initial_latent()
        for i, t in enumerate([50.0, 49.0, 48.0]):
            h = push_full(h, _ts(t, i), backbone.evaluate(z, _ts(t, i)))
        assert (compute_curvature(h) <= 1e-12).all()

    def test_turnpoint_reversal_has_positive_curvature(self):
        spec = SyntheticSpec(
            preset=Preset.TURNPOINT,
            fractions=(0.0, 0.0, 1.0),
            turn_step=4,
            noise_sigma=0.0,
            seed=9,
        )
        backbone = SyntheticBackbone(spec)
        h = FullHistory()
        z = backbone.initial_latent()
        # straddle a reversal: zigzag turns land at index 2 mod turn_step
        for i, idx in enumerate([4, 5, 6]):
            t = _ts(50 - idx, idx)
            h = push_full(h, t, backbone.evaluate(z, t))
        kappa = compute_curvature(h)
        assert (kappa > 0).all()

    def test_deterministic_given_spec(self):
        spec = SyntheticSpec(preset=Preset.MIXED, noise_sigma=0.1, seed=21)
        a = SyntheticBackbone(spec)
        b = SyntheticBackbone(spec)
        t = _ts(33.0, 17)
        z = a.initial_latent()
        assert a.evaluate(z, t) == b.evaluate(z, t)

    def test_noise_depends_on_timestep_index(self):
        spec = SyntheticSpec(
            fractions=(1.0, 0.0, 0.0), noise_sigma=0.5, seed=2
        )
        backbone = SyntheticBackbone(spec)
        z = backbone.initial_latent()
        a = backbone.evaluate(z, _ts(40.0, 10))
        b = backbone.evaluate(z, _ts(40.0, 10))
        c = backbone.evaluate(z, _ts(39.0, 11))
        assert a == b
        assert a != c

    def test_coupling_feeds_latent_back(self):
        spec = SyntheticSpec(coupling=0.5, seed=4)
        backbone = SyntheticBackbone(spec)
        t = _ts(25.0, 25)
        z0 = backbone.initial_latent()
        z1 = TokenMatrix(z0.data + 1.0)
        assert backbone.evaluate(z0, t) != backbone.evaluate(z1, t)

    def test_open_loop_ignores_latent(self):
        spec = SyntheticSpec(coupling=0.0, seed=4)
        backbone = SyntheticBackbone(spec)
        t = _ts(25.0, 25)
        z0 = backbone.initial_latent()
        z1 = TokenMatrix(z0.data + 1.0)
        assert backbone.evaluate(z0, t) == backbone.evaluate(z1, t)

    @pytest.mark.parametrize("coupling", [0.0, 0.5], ids=["open", "coupled"])
    @pytest.mark.parametrize("noise", [0.0, 0.1], ids=["clean", "noisy"])
    @pytest.mark.parametrize("preset", list(Preset), ids=lambda p: p.value)
    def test_each_output_is_a_fresh_frozen_matrix(self, preset, noise, coupling):
        spec = SyntheticSpec(preset=preset, noise_sigma=noise, coupling=coupling, seed=3)
        backbone = SyntheticBackbone(spec)
        z, t = backbone.initial_latent(), _ts(17.0, 5)
        a, b = backbone.evaluate(z, t), backbone.evaluate(z, t)
        assert a == b
        assert not a.data.flags.writeable and not b.data.flags.writeable
        own = [v for v in vars(backbone).values() if isinstance(v, np.ndarray)]
        for other in [b.data, z.data, *own]:
            assert not np.shares_memory(a.data, other)
        for other in [z.data, *own]:
            assert not np.shares_memory(b.data, other)

    def test_mixed_stable_tokens_classify_stable(self):
        spec = SyntheticSpec(preset=Preset.MIXED, noise_sigma=0.0, seed=13)
        backbone = SyntheticBackbone(spec)
        h = FullHistory()
        z = backbone.initial_latent()
        for i, t in enumerate([50.0, 49.0, 48.0]):
            h = push_full(h, _ts(t, i), backbone.evaluate(z, _ts(t, i)))
        g = group_tokens(compute_curvature(h))
        stable_idx = set(g.members[TokenGroup.STABLE].tolist())
        true_stable = set(np.flatnonzero(backbone.regimes == 0).tolist())
        assert stable_idx <= true_stable


class TestTraceRoundTrip:
    def _random_trace(self, tmp_path, n=4, d=3, steps=5, modality=None):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(steps, n, d)).astype(np.float32)
        timesteps = [float(steps - i) for i in range(steps)]
        path = tmp_path / "t.wct"
        write_trace(path, TraceBackbone(timesteps, blocks, modality))
        return path, timesteps, blocks

    def test_round_trip_bit_identical(self, tmp_path):
        path, timesteps, blocks = self._random_trace(tmp_path)
        trace = read_trace(path)
        assert trace.timesteps == tuple(timesteps)
        for stored, original in zip(trace.outputs, blocks):
            assert np.array_equal(
                stored.data.astype(np.float32), original
            )

    @pytest.mark.parametrize("labels", [None, [2, 0, 1, 1]], ids=["record", "labelled"])
    def test_writing_what_was_read_reproduces_the_file(self, tmp_path, labels):
        # write_trace is read_trace's inverse: the first trace is record's
        src, copy = tmp_path / "src.wct", tmp_path / "copy.wct"
        if labels is None:
            assert main(["record", str(src), "--seed", "3", "--n-tokens", "4",
                         "--dims", "3", "--steps", "9", "--out", str(tmp_path)]) == 0
        else:
            src, _, _ = self._random_trace(tmp_path, modality=labels)
        write_trace(copy, read_trace(src))
        assert copy.read_bytes() == src.read_bytes()

    def test_blocks_are_frozen_float64_matrices(self, tmp_path):
        # the payload is kept frozen at float32, and each block read is
        # widened into a frozen float64 matrix of its own
        path, _, blocks = self._random_trace(tmp_path)
        outputs = read_trace(path).outputs
        payload = outputs.blocks
        assert payload.dtype == np.float32 and np.array_equal(payload, blocks)
        with pytest.raises(ValueError):
            payload[...] = 0.0
        for stored, original in zip(outputs, blocks):
            data = stored.data
            assert data.dtype == np.float64 and data.flags.c_contiguous
            assert data.tolist() == original.astype(np.float64).tolist()
            assert not np.shares_memory(data, payload)
            with pytest.raises(ValueError):
                data[...] = 0.0

    def test_modality_round_trip(self, tmp_path):
        labels = [Modality.RGB, Modality.RGB, Modality.DEPTH, Modality.OTHER]
        path, _, _ = self._random_trace(tmp_path, modality=labels)
        trace = read_trace(path)
        assert trace.modality.tolist() == [0, 0, 1, 2]

    def test_no_modality_reads_as_none(self, tmp_path):
        path, _, _ = self._random_trace(tmp_path)
        assert read_trace(path).modality is None

    @pytest.mark.parametrize("value", [F32_MAX + 2.0**103, -1e39, np.inf, np.nan])
    def test_cast_rejects_a_block_past_the_float32_range(self, value):
        # F32_MAX + 2**103 is the half-way point that rounds to inf
        block = np.zeros((2, 2))
        block[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="output block 1 does not fit in float32"):
                cast_block(1, np.empty((2, 2), dtype=np.float32), block)

    def test_cast_takes_values_that_round_into_the_float32_range(self):
        # just below the half-way point, the cast rounds down to F32_MAX
        out = np.empty((1, 2), dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cast_block(0, out, np.array([[F32_MAX + 2.0**102, -F32_MAX]]))
        assert out.tolist() == [[F32_MAX, -F32_MAX]]

    def test_float32_blocks_are_not_widened_on_write(self, tmp_path):
        blocks = np.random.default_rng(4).normal(size=(4, 256, 64)).astype(np.float32)
        trace = TraceBackbone([4.0, 3.0, 2.0, 1.0], blocks)
        tracemalloc.start()
        try:
            write_trace(tmp_path / "x.wct", trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the frozen payload is written as it is; a float64 copy would be 8 blocks
        assert peak < 1.5 * blocks[0].nbytes

    def test_labels_do_not_keep_the_file_buffer_alive(self, tmp_path):
        blocks = np.zeros((4, 64, 256), dtype=np.float32)  # a 256 KiB payload
        path = tmp_path / "x.wct"
        write_trace(path, TraceBackbone([4.0, 3.0, 2.0, 1.0], blocks, [1] * 64))
        tracemalloc.start()
        try:
            labels = read_trace(path).modality
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert labels.tolist() == [1] * 64 and not labels.flags.writeable
        assert held < path.stat().st_size // 16


class TestTraceFormatErrors:
    def _valid_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(3, 2, 2)).astype(np.float32)
        path = tmp_path / "ok.wct"
        write_trace(path, TraceBackbone([3.0, 2.0, 1.0], blocks))
        return bytearray(path.read_bytes())

    def test_unsupported_version_magic(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        raw[:8] = b"WCTRACE0"
        bad = tmp_path / "v0.wct"
        bad.write_bytes(raw)
        with pytest.raises(TraceFormatError, match="version") as exc_info:
            read_trace(bad)
        assert exc_info.value.byte_offset == 7

    def test_foreign_magic(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        raw[:8] = b"NOTATRCE"
        bad = tmp_path / "bad.wct"
        bad.write_bytes(raw)
        with pytest.raises(TraceFormatError, match="magic") as exc_info:
            read_trace(bad)
        assert exc_info.value.byte_offset == 0

    def test_truncated_payload(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        bad = tmp_path / "short.wct"
        bad.write_bytes(raw[: len(raw) - 20])
        with pytest.raises(TraceFormatError, match="payload") as exc_info:
            read_trace(bad)
        assert exc_info.value.byte_offset is not None

    def test_non_decreasing_timesteps(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        # timestep table starts after magic (8) + header (12); overwrite the
        # second entry with a copy of the first
        raw[28:36] = raw[20:28]
        bad = tmp_path / "ts.wct"
        bad.write_bytes(raw)
        with pytest.raises(TraceFormatError, match="decreasing") as exc_info:
            read_trace(bad)
        assert exc_info.value.byte_offset == 28

    def test_three_error_classes_are_distinct_messages(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        messages = []
        for mutate in ("magic", "truncate", "timesteps"):
            data = bytearray(raw)
            if mutate == "magic":
                data[:8] = b"WCTRACE0"
            elif mutate == "truncate":
                data = data[:-20]
            else:
                data[28:36] = data[20:28]
            bad = tmp_path / f"{mutate}.wct"
            bad.write_bytes(bytes(data))
            with pytest.raises(TraceFormatError) as exc_info:
                read_trace(bad)
            messages.append(str(exc_info.value))
        assert len(set(messages)) == 3

    def test_trailing_garbage_rejected(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        bad = tmp_path / "trail.wct"
        bad.write_bytes(bytes(raw) + b"xx")
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(bad)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path / "absent.wct")

    def test_non_finite_sample(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        # the payload starts after magic (8) + header (12) + 3 timesteps (24)
        raw[44 + 4 * 5: 44 + 4 * 6] = np.array([np.inf], dtype="<f4").tobytes()
        bad = tmp_path / "inf.wct"
        bad.write_bytes(raw)
        for parse in (read_trace, validate_trace):
            with pytest.raises(TraceFormatError, match="flat index 5") as exc_info:
                parse(bad)
            assert exc_info.value.byte_offset == 64

    @pytest.mark.parametrize("parse", [read_trace, validate_trace])
    @pytest.mark.parametrize(
        "labels, damage, message, offset",
        [
            (None, lambda raw: raw[:5], "file too short for magic: 5 bytes", 0),
            (None, lambda raw: raw[:14], "truncated header", 14),
            (None, lambda raw: _patch(raw, 12, np.uint32(0).tobytes()),
             "degenerate dimensions n_tokens=2 dims=0 n_steps=3", 8),
            (None, lambda raw: raw[:30],
             "truncated timestep table: need 24 bytes at offset 20", 30),
            (None, lambda raw: _patch(raw, 28, np.array([np.nan], "<f8").tobytes()),
             "non-finite timestep at entry 1", 28),
            (None, lambda raw: raw[:-20],
             "truncated payload: need 48 bytes at offset 44, file ends after 29", 73),
            # flat index 10 lies in the last of the three 2x2 blocks
            (None, lambda raw: _patch(raw, 44 + 4 * 10, np.array([-np.inf], "<f4").tobytes()),
             "non-finite sample at flat index 10", 84),
            (None, lambda raw: raw[:-1], "truncated modality flag: need 1 byte", 92),
            ([0, 1], lambda raw: raw[:-3], "truncated modality flag: need 1 byte", 92),
            (None, lambda raw: _patch(raw, 92, b"\x02"), "bad modality flag byte 0x02", 92),
            ([0, 1], lambda raw: raw[:-1], "truncated modality labels: need 2 bytes", 94),
            (None, lambda raw: raw + b"xx", "2 trailing bytes after trace content", 93),
            ([0, 1], lambda raw: raw + b"x", "1 trailing bytes after trace content", 95),
        ],
    )
    def test_every_format_error_names_its_cause_and_offset(
        self, tmp_path, parse, labels, damage, message, offset
    ):
        # 3 steps of 2x2: timesteps at byte 20, payload at 44, flag at 92
        blocks = np.random.default_rng(1).normal(size=(3, 2, 2)).astype(np.float32)
        path = tmp_path / "bad.wct"
        write_trace(path, TraceBackbone([3.0, 2.0, 1.0], blocks, labels))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(TraceFormatError) as exc_info:
            parse(path)
        assert str(exc_info.value) == f"{message} (byte offset {offset})"
        assert exc_info.value.byte_offset == offset

    def test_validate_trace_summary(self, tmp_path):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(4, 5, 3)).astype(np.float32)
        path = tmp_path / "v.wct"
        write_trace(path, TraceBackbone([8.0, 6.0, 4.0, 2.0], blocks))
        summary = validate_trace(path)
        assert summary["n_tokens"] == 5
        assert summary["dims"] == 3
        assert summary["n_steps"] == 4
        assert summary["t_first"] == 8.0
        assert summary["t_last"] == 2.0


@st.composite
def _damage(draw, raw):
    """A random truncation of raw, or raw with 1-3 of its bits flipped."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    data = bytearray(raw)
    bits = st.integers(0, 8 * len(raw) - 1)
    for bit in draw(st.lists(bits, min_size=1, max_size=3, unique=True)):
        data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


class TestTraceFuzz:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("fuzz")
        blocks = np.random.default_rng(3).normal(size=(3, 4, 2)).astype(np.float32)
        raws = []
        for modality in (None, [0, 1, 2, 1]):
            write_trace(tmp_dir / "valid.wct", TraceBackbone([3.0, 2.0, 1.0], blocks, modality))
            raws.append((tmp_dir / "valid.wct").read_bytes())
        return tmp_dir / "damaged.wct", raws

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_damage_raises_trace_format_error_or_parses(self, traces, data):
        path, raws = traces
        path.write_bytes(data.draw(st.sampled_from(raws).flatmap(_damage)))
        try:
            trace = read_trace(path)
        except TraceFormatError:
            return
        ts = np.array(trace.timesteps)
        assert len(trace.outputs) == ts.size >= 1
        assert np.isfinite(ts).all() and (np.diff(ts) < 0).all()
        for m in trace.outputs:
            assert m.shape == trace.shape
            assert np.isfinite(m.data).all()

    def test_every_strict_prefix_is_a_format_error(self, traces):
        path, raws = traces
        for raw in raws:  # unlabelled, then labelled
            for n in range(len(raw)):
                path.write_bytes(raw[:n])
                for parse in (read_trace, validate_trace):
                    with pytest.raises(TraceFormatError):
                        parse(path)


class TestNonDyadicGrid:
    def test_round_trip_and_replay_are_bit_exact(self, tmp_path):
        grid = uniform_grid(37, 1000.0)[:37]  # steps of 1000/37: no exact binary form
        blocks = np.random.default_rng(4).normal(size=(37, 3, 2)).astype(np.float32)
        path = tmp_path / "grid.wct"
        write_trace(path, TraceBackbone(grid, blocks))
        replay = read_trace(path)
        assert replay.timesteps == tuple(t.value for t in grid)
        for stored, original in zip(replay.outputs, blocks):
            assert np.array_equal(stored.data, original.astype(np.float64))
        assert replay.replay_grid()[:37] == grid
        z = replay.initial_latent()
        for i, t in enumerate(grid):
            # the output is found by the timestep's value; its index is not read
            assert replay.evaluate(z, t) is replay.outputs[i]
            assert replay.evaluate(z, Timestep(t.value, (i + 1) % 37)) is replay.outputs[i]


class TestTraceBackbone:
    def test_replay_returns_stored_rows(self, tmp_path):
        spec = SyntheticSpec(preset=Preset.MIXED, seed=6)
        backbone = SyntheticBackbone(spec)
        sched = EulerScheduler(uniform_grid(10))
        ref = oracle_run(backbone, sched, backbone.initial_latent(),
                         record_outputs=True)
        path = tmp_path / "replay.wct"
        blocks = np.stack([y.data for y in ref.surrogates]).astype(np.float32)
        write_trace(path, TraceBackbone(sched.timesteps[:10], blocks))
        replay = read_trace(path)
        assert replay.shape == backbone.shape
        for t, expected in zip(sched.timesteps[:10], ref.surrogates):
            got = replay.evaluate(replay.initial_latent(), t)
            assert np.array_equal(
                got.data, expected.data.astype(np.float32).astype(np.float64)
            )

    def test_replay_ignores_latent(self, tmp_path):
        blocks = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
        path = tmp_path / "open.wct"
        write_trace(path, TraceBackbone([3.0, 2.0, 1.0], blocks))
        replay = read_trace(path)
        t = _ts(2.0, 1)
        a = replay.evaluate(TokenMatrix(np.zeros((2, 2))), t)
        b = replay.evaluate(TokenMatrix(np.ones((2, 2))), t)
        assert a == b

    def test_unknown_timestep_rejected(self, tmp_path):
        blocks = np.zeros((2, 1, 1), dtype=np.float32)
        path = tmp_path / "grid.wct"
        write_trace(path, TraceBackbone([2.0, 1.0], blocks))
        replay = read_trace(path)
        with pytest.raises(ParameterError):
            replay.evaluate(replay.initial_latent(), _ts(1.5, 0))

    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1)])
    def test_blocks_must_match_the_timesteps(self, shape):
        blocks = np.zeros(shape, dtype=np.float32)
        with pytest.raises(DimensionError, match="for 3 timesteps"):
            TraceBackbone([3.0, 2.0, 1.0], blocks)
        assert blocks.flags.writeable  # a rejected array is not frozen

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_sample_is_rejected_when_built(self, value):
        blocks = np.zeros((3, 2, 2), dtype=np.float32)
        blocks[2, 1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="output block 2 holds a non-finite value"):
                TraceBackbone([3.0, 2.0, 1.0], blocks)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 2), (1, 2, 0)])
    def test_empty_blocks_are_rejected(self, shape):
        # read_trace rejects such a trace as degenerate, so none is built
        with pytest.raises(DimensionError, match="must not be empty"):
            TraceBackbone([1.0] * shape[0], np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("blocks", [np.zeros((2, 1, 1)), [[[0.0]], [[0.0]]]])
    def test_blocks_must_be_a_float32_array(self, blocks):
        with pytest.raises(ParameterError, match="must be a float32 array"):
            TraceBackbone([2.0, 1.0], blocks)

    def test_ascending_timesteps_are_rejected(self):
        with pytest.raises(OrderingError, match="strictly decreasing: 2.0 after 1.0"):
            TraceBackbone([1.0, 2.0], np.zeros((2, 1, 1), dtype=np.float32))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_timesteps_are_rejected(self, value):
        with pytest.raises(ParameterError, match="timesteps must be finite"):
            TraceBackbone([value, 1.0], np.zeros((2, 1, 1), dtype=np.float32))

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]]])
    def test_labels_must_name_each_token_once(self, labels):
        with pytest.raises(DimensionError, match=r"must have shape \(3,\)"):
            TraceBackbone([1.0], np.zeros((1, 3, 2), dtype=np.float32), labels)

    @pytest.mark.parametrize("labels", [[0, 256, 1], [-1, 0, 0]])
    def test_labels_must_fit_in_a_byte(self, labels):
        with pytest.raises(ParameterError, match="fit in one byte"):
            TraceBackbone([1.0], np.zeros((1, 3, 2), dtype=np.float32), labels)

    def test_labels_are_kept_as_frozen_bytes(self):
        labels = [Modality.DEPTH, 0, 255]
        trace = TraceBackbone([1.0], np.zeros((1, 3, 2), dtype=np.float32), labels)
        assert trace.modality.dtype == np.uint8 and trace.modality.tolist() == [1, 0, 255]
        assert not trace.modality.flags.writeable

    def test_replay_grid_matches_stored_timesteps(self, tmp_path):
        blocks = np.zeros((3, 1, 1), dtype=np.float32)
        path = tmp_path / "grid2.wct"
        write_trace(path, TraceBackbone([9.0, 5.0, 2.0], blocks))
        replay = read_trace(path)
        grid = replay.replay_grid()
        assert [t.value for t in grid[:3]] == [9.0, 5.0, 2.0]
        assert len(grid) == 4  # one terminal node past the decisions
