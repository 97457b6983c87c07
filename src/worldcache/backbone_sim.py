"""Synthetic token-trajectory backbones and the on-disk trace container.

Synthetic workloads expose the three empirical regimes the policy is built
around as contiguous token blocks: exactly constant rows (stable), affine
drift (linear), and direction-changing rows (chaotic). Presets:

    smooth     constant + affine + affine: the all-straight-line workload;
               every token's curvature is zero up to rounding.
    mixed      constant + gently bent affine + circling rows. The bend on the
               middle block is sized so its normalized curvature sits at a
               fixed small value regardless of the token's slope, keeping the
               ranking constant < bent < circling wide and value-driven. The
               circling rows follow a planar orbit around a drifting center,
               so their measured curvature is insensitive to phase, and the
               orbit speeds up toward the end of the schedule, so the drift
               rate genuinely varies over a run.
    turnpoint  constant + affine + zigzag rows whose per-step velocity
               reverses sign every turn_step steps. The first reversal lands
               on the last of the three warmup evaluations, so later cache
               streaks bracket whole constant-velocity segments and every
               refresh sees a genuine direction change.

Optional white observation noise (seeded, a pure function of the step index)
and a closed-loop coupling term complete the workload. The coupling pulls the
output toward a rest state proportionally to (z - target): under the explicit
Euler update on a descending grid this contracts the latent toward the target,
so cache errors feed back without diverging.

Traces are little-endian binary: 8-byte magic "WCTRACE1", u32 n_tokens, dims,
n_steps, then n_steps f64 strictly-decreasing timesteps, then n_steps blocks
of n_tokens*dims f32 row-major samples, then one required modality flag
byte: 0, or 1 followed by n_tokens label bytes. Canonical extension: .wct.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .core import Modality, Timestep, TokenMatrix
from .errors import DimensionError, OrderingError, ParameterError, TraceFormatError

TRACE_MAGIC = b"WCTRACE1"
TRACE_EXTENSION = ".wct"
_HEADER = struct.Struct("<III")

COUPLING_DECAY = 0.15
_SLOPE_SCALE = 0.04          # affine drift per scheduler unit (component std)
_SMOOTH_CHAOTIC_SLOPE = 0.12
_MIXED_SLOPE_RANGE = (0.3, 0.8)   # bent-block slope magnitude, kept off zero
_BEND_FREQUENCY_FACTOR = 0.25     # bend cycles per unit time / base frequency
_BEND_CURVE_TARGET = 0.005        # normalized curvature the bend aims at
_ORBIT_RADIUS_FACTOR = 0.35       # circling radius / amplitude
_ORBIT_SPEED_RANGE = (0.8, 1.2)   # drifting-center speed for circling rows
_CHIRP_FACTOR = 0.5               # fractional speed-up of orbits as t -> 0
_CHIRP_REF = 50.0                 # nominal schedule length the chirp spans
_TURN_PHASE = 2                   # zigzag reversal offset: warmup calls - 1
_NOISE_STREAM = 0x6E6F6973


class Preset(str, Enum):
    MIXED = "mixed"
    SMOOTH = "smooth"
    TURNPOINT = "turnpoint"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic workload. fractions = (stable, linear,
    chaotic) shares of n_tokens; they must sum to 1 within 1e-12."""

    n_tokens: int = 96
    dims: int = 8
    fractions: tuple[float, float, float] = (0.3, 0.4, 0.3)
    preset: Preset = Preset.MIXED
    turn_step: int = 8
    amplitude: float = 1.0
    frequency: float = 0.15
    noise_sigma: float = 0.0
    coupling: float = 0.0
    seed: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "preset", Preset(self.preset))
        except ValueError as exc:
            raise ParameterError(f"unknown preset {self.preset!r}") from exc
        if self.n_tokens < 1:
            raise ParameterError(f"n_tokens must be >= 1, got {self.n_tokens}")
        if self.dims < 1:
            raise ParameterError(f"dims must be >= 1, got {self.dims}")
        if len(self.fractions) != 3 or any(f < 0 for f in self.fractions):
            raise ParameterError(
                f"fractions must be three non-negative reals, got {self.fractions}"
            )
        if abs(sum(self.fractions) - 1.0) > 1e-12:
            raise ParameterError(
                f"fractions must sum to 1 within 1e-12, got sum {sum(self.fractions)!r}"
            )
        if self.turn_step < 1:
            raise ParameterError(f"turn_step must be >= 1, got {self.turn_step}")
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise ParameterError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.frequency <= 0 or not math.isfinite(self.frequency):
            raise ParameterError(f"frequency must be finite and > 0, got {self.frequency}")
        if self.noise_sigma < 0 or not math.isfinite(self.noise_sigma):
            raise ParameterError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not (0.0 <= self.coupling <= 1.0):
            raise ParameterError(f"coupling must lie in [0, 1], got {self.coupling}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.preset is Preset.MIXED and self.dims < 3:
            raise ParameterError(
                f"the mixed preset needs dims >= 3 for its orbit geometry, got {self.dims}"
            )


def _partition(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder split of n tokens into three blocks (exact total)."""
    raw = [f * n for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    rem = n - sum(counts)
    order = sorted(range(3), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in range(rem):
        counts[order[i]] += 1
    return tuple(counts)


def _orthonormal_frames(rng: np.random.Generator, n: int, d: int, k: int) -> np.ndarray:
    """n stacks of k orthonormal d-vectors (Gram-Schmidt on gaussian draws)."""
    frames = np.empty((k, n, d))
    for j in range(k):
        v = rng.normal(size=(n, d))
        for i in range(j):
            v -= np.einsum("nd,nd->n", v, frames[i])[:, None] * frames[i]
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        frames[j] = v / norms
    return frames


class SyntheticBackbone:
    """Deterministic synthetic backbone; evaluate() is a pure function of
    (z, t) for a fixed SyntheticSpec."""

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        n, d = spec.n_tokens, spec.dims
        n_s, n_l, n_c = _partition(n, spec.fractions)
        self._sl_linear = slice(n_s, n_s + n_l)
        self._sl_chaotic = slice(n_s + n_l, n)
        regimes = np.empty(n, dtype=np.int8)
        regimes[:n_s] = 0
        regimes[self._sl_linear] = 1
        regimes[self._sl_chaotic] = 2
        regimes.setflags(write=False)
        self.regimes = regimes

        rng = np.random.default_rng(spec.seed)
        self._base = rng.normal(0.0, 1.0, (n, d))
        self._z0 = self._base + 0.3 * rng.normal(0.0, 1.0, (n, d))

        if spec.preset is Preset.MIXED:
            # Middle block: affine drift with a perpendicular bend. The bend
            # amplitude is solved per token from a fixed normalized-curvature
            # target, so slope draws cannot push a bent row's curvature up
            # into (or anywhere near) the circling block's range.
            lo, hi = _MIXED_SLOPE_RANGE
            mag = rng.uniform(lo, hi, n_l)
            sign = rng.integers(0, 2, n_l) * 2 - 1
            frames = _orthonormal_frames(rng, n_l, d, 2)
            self._slope = (sign * mag)[:, None] * frames[0]
            self._bend_dir = frames[1]
            self._bend_freq = spec.frequency * _BEND_FREQUENCY_FACTOR
            omega_b = 2.0 * math.pi * self._bend_freq
            try:
                omega_sq = omega_b**2
            except OverflowError:  # frequency above about 1e153: no bend
                omega_sq = math.inf
            self._bend_amp = _BEND_CURVE_TARGET * mag**2 / omega_sq
            self._bend_phase = rng.uniform(0.0, 2.0 * math.pi, n_l)

            # Circling block: planar orbit around a center that drifts along
            # a third orthogonal axis. Orbit geometry (not phase) sets the
            # measured curvature, and the chirp speeds orbits up toward t=0.
            frames = _orthonormal_frames(rng, n_c, d, 3)
            self._orbit_u = frames[0]
            self._orbit_w = frames[1]
            self._orbit_drift_dir = frames[2]
            self._orbit_speed = rng.uniform(*_ORBIT_SPEED_RANGE, n_c)
            self._orbit_radius = (
                _ORBIT_RADIUS_FACTOR * spec.amplitude * rng.uniform(0.7, 1.3, n_c)
            )
            self._orbit_omega = 2.0 * math.pi * spec.frequency * rng.uniform(0.85, 1.2, n_c)
            self._orbit_phase = rng.uniform(0.0, 2.0 * math.pi, n_c)
        else:
            self._slope = rng.normal(0.0, _SLOPE_SCALE, (n_l, d))
            self._cdir = _orthonormal_frames(rng, n_c, d, 1)[0]
            self._camp = spec.amplitude * rng.uniform(0.7, 1.3, n_c)
            self._cslope = rng.normal(0.0, _SMOOTH_CHAOTIC_SLOPE, (n_c, d))

    @property
    def shape(self) -> tuple[int, int]:
        return self._base.shape

    def initial_latent(self) -> TokenMatrix:
        return TokenMatrix(self._z0)

    def _drift(self, t: Timestep) -> np.ndarray:
        spec = self.spec
        out = self._base.copy()
        sl, sc = self._sl_linear, self._sl_chaotic

        out[sl] += self._slope * t.value
        if spec.preset is Preset.MIXED:
            bend = self._bend_amp * np.sin(
                2.0 * math.pi * self._bend_freq * t.value + self._bend_phase
            )
            out[sl] += bend[:, None] * self._bend_dir
            # chirped phase: instantaneous angular speed grows linearly from
            # omega*(1-chirp) at t=2*ref to omega*(1+chirp) at t=0
            chi = _CHIRP_FACTOR
            try:
                t_sq = t.value**2
            except OverflowError:  # |t| above about 1.3e154
                t_sq = math.inf
            theta = (
                self._orbit_omega
                * ((1.0 + chi) * t.value - chi * t_sq / (2.0 * _CHIRP_REF))
                + self._orbit_phase
            )
            # base + (center + radius * (cos u + sin w)) in place, the same bits
            o = out[sc]
            np.multiply(np.cos(theta)[:, None], self._orbit_u, out=o)
            o += np.sin(theta)[:, None] * self._orbit_w
            o *= self._orbit_radius[:, None]
            o += (self._orbit_speed * t.value)[:, None] * self._orbit_drift_dir
            o += self._base[sc]
        elif spec.preset is Preset.SMOOTH:
            out[sc] += self._cslope * t.value
        else:  # TURNPOINT: zigzag in step index, reversal every turn_step steps
            p = spec.turn_step
            s = (t.index - _TURN_PHASE) % (2 * p)
            z01 = (p - abs(p - s)) / p
            out[sc] += (self._camp * (2.0 * z01 - 1.0))[:, None] * self._cdir
        return out

    def evaluate(self, z: TokenMatrix, t: Timestep) -> TokenMatrix:
        if z.shape != self._base.shape:
            raise DimensionError(
                f"latent shape {z.shape} does not match workload {self._base.shape}"
            )
        # A timestep past the range the preset can take leaves non-finite
        # rows, silently; TokenMatrix.adopt's scan below rejects them.
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._drift(t)
        spec = self.spec
        if spec.noise_sigma > 0.0:
            rng = np.random.default_rng((spec.seed, _NOISE_STREAM, t.index))
            out += rng.normal(0.0, spec.noise_sigma, out.shape)
        if spec.coupling > 0.0:
            out += spec.coupling * COUPLING_DECAY * (z.data - self._base)
        return TokenMatrix.adopt(out)


# ---------------------------------------------------------------------------
# trace container
# ---------------------------------------------------------------------------


class TraceOutputs(Sequence):
    """A trace's outputs as the file stores them: `blocks`, one frozen float32
    (n_steps, n_tokens, dims) array, and `norms`, the Frobenius norm of each
    block's exact float64 widening, taken once, on first read. Reading output
    i widens block i into a frozen TokenMatrix and keeps the last one widened.
    `references[i]`, what a run over the trace is scored against at step i,
    is that kept matrix if it is block i (a replayed FULL step's output), else
    (block i, norm i)."""

    def __init__(self, blocks: np.ndarray):
        self.blocks, self._last = blocks, (None, None)

    @functools.cached_property
    def norms(self) -> tuple[float, ...]:
        return tuple(kernels.fro_norm(b.astype(np.float64)) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, i) -> TokenMatrix:
        i = range(len(self.blocks))[operator.index(i)]
        if i != self._last[0]:
            self._last = i, TokenMatrix._wrap(self.blocks[i].astype(np.float64))
        return self._last[1]

    @property
    def references(self) -> Sequence:
        return _References(self)


class _References(Sequence):
    def __init__(self, outputs: TraceOutputs):
        self.outputs = outputs

    def __len__(self) -> int:
        return len(self.outputs)

    def __getitem__(self, i):
        kept_i, kept = self.outputs._last
        return kept if i == kept_i else (self.outputs.blocks[i], self.outputs.norms[i])


def cast_block(i: int, out: np.ndarray, m: np.ndarray) -> None:
    """Cast output block i into out, a float32 array, as a trace stores it.
    A value that does not fit in float32 raises ParameterError."""
    with np.errstate(over="ignore"):
        np.copyto(out, m, casting="same_kind")
    if not np.isfinite(out).all():
        peak = np.maximum(m.max(), -m.min())  # NaN if the block holds one
        raise ParameterError(
            f"output block {i} does not fit in float32: max |value| is {float(peak):g}"
        )


def write_trace(path, trace: TraceBackbone) -> None:
    """Serialize a trace, the inverse of read_trace. TraceBackbone has
    checked everything the format requires, so this checks nothing, and the
    parent directory is made only for a trace that passed those checks."""
    blocks, labels = trace.outputs.blocks, trace.modality
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        f.write(_HEADER.pack(*trace.shape, len(blocks)))
        f.write(np.asarray(trace.timesteps, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(blocks, dtype="<f4"))
        f.write(b"\x00" if labels is None else b"\x01" + labels.tobytes())


def _read(f, n: int, size: int, message: str) -> bytes:
    """The next n bytes of f, or TraceFormatError(message) at the file's end
    if fewer remain. It asks for no more than the file's size allows, so a
    damaged header that declares a huge table allocates nothing for it."""
    at = f.tell()
    data = f.read(min(n, max(size - at, 0)))
    if len(data) < n:
        raise TraceFormatError(message, byte_offset=at + len(data))
    return data


def _parse_trace(
    path, keep: bool
) -> tuple[np.ndarray, tuple[int, int, int], np.ndarray | None, np.ndarray | None]:
    """Check a trace file, reading its samples one float32 block at a time.

    Returns the timesteps, the (n_steps, n_tokens, dims) shape, the samples
    as one (n_steps, n_tokens, dims) float32 array if keep is set (else
    None), and the labels. The file's size is checked against the payload
    its header declares before anything is read or allocated for the
    samples, so a damaged header ends in TraceFormatError, not MemoryError.
    Each block is read into its slice of that array, or with keep unset into
    one reused block buffer, and checked for finiteness as it arrives.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(TRACE_MAGIC))
        if len(magic) < len(TRACE_MAGIC):
            raise TraceFormatError(
                f"file too short for magic: {len(magic)} bytes", byte_offset=0
            )
        if magic != TRACE_MAGIC:
            if magic[:7] == TRACE_MAGIC[:7]:
                raise TraceFormatError(
                    f"unsupported trace version {magic!r} (expected {TRACE_MAGIC!r})",
                    byte_offset=7,
                )
            raise TraceFormatError(
                f"bad magic {magic!r} (expected {TRACE_MAGIC!r})", byte_offset=0
            )
        off = len(TRACE_MAGIC)
        n_tokens, dims, n_steps = _HEADER.unpack(
            _read(f, _HEADER.size, size, "truncated header")
        )
        off += _HEADER.size
        if n_tokens == 0 or dims == 0 or n_steps == 0:
            raise TraceFormatError(
                f"degenerate dimensions n_tokens={n_tokens} dims={dims} n_steps={n_steps}",
                byte_offset=len(TRACE_MAGIC),
            )

        ts_bytes = n_steps * 8
        table = _read(
            f, ts_bytes, size, f"truncated timestep table: need {ts_bytes} bytes at offset {off}"
        )
        timesteps = np.frombuffer(table, dtype="<f8")
        if not np.isfinite(timesteps).all():
            bad = int(np.flatnonzero(~np.isfinite(timesteps))[0])
            raise TraceFormatError(
                f"non-finite timestep at entry {bad}", byte_offset=off + bad * 8
            )
        deltas = np.diff(timesteps)
        if deltas.size and not (deltas < 0).all():
            bad = int(np.flatnonzero(deltas >= 0)[0]) + 1
            raise TraceFormatError(
                f"timesteps not strictly decreasing at entry {bad} "
                f"({timesteps[bad]!r} after {timesteps[bad - 1]!r})",
                byte_offset=off + bad * 8,
            )
        off += ts_bytes

        block = n_tokens * dims
        payload = n_steps * block * 4

        def truncated(ends_after: int) -> TraceFormatError:
            return TraceFormatError(
                f"truncated payload: need {payload} bytes at offset {off}, "
                f"file ends after {ends_after}",
                byte_offset=off + ends_after,
            )

        if size - off < payload:
            raise truncated(size - off)
        blocks = np.empty((n_steps if keep else 1, n_tokens, dims), dtype="<f4")
        for i in range(n_steps):
            buf = blocks[i if keep else 0]
            got = f.readinto(buf)
            if got < buf.nbytes:  # the file shrank after it was opened
                raise truncated(i * buf.nbytes + got)
            if not np.isfinite(buf).all():
                bad = i * block + int(np.flatnonzero(~np.isfinite(buf))[0])
                raise TraceFormatError(
                    f"non-finite sample at flat index {bad}", byte_offset=off + bad * 4
                )
        off += payload

        modality = None
        flag = _read(f, 1, size, "truncated modality flag: need 1 byte")
        off += 1
        if flag == b"\x01":
            labels = _read(
                f, n_tokens, size, f"truncated modality labels: need {n_tokens} bytes"
            )
            modality = np.frombuffer(labels, np.uint8)  # read-only
            off += n_tokens
        elif flag != b"\x00":
            raise TraceFormatError(
                f"bad modality flag byte {flag[0]:#04x}", byte_offset=off - 1
            )
        if off != size:
            raise TraceFormatError(
                f"{size - off} trailing bytes after trace content", byte_offset=off
            )
    return timesteps, (n_steps, n_tokens, dims), blocks if keep else None, modality


def read_trace(path) -> TraceBackbone:
    """Parse a trace file into its replay backbone, rejecting malformed
    containers with byte offsets. Each checked block is read straight into
    its slice of one float32 array, allocated once the file's size has been
    checked, and is widened only when it is read (TraceOutputs)."""
    timesteps, _, blocks, modality = _parse_trace(path, keep=True)
    return TraceBackbone(timesteps, blocks, modality)


def validate_trace(path) -> dict:
    """Full parse plus a human-readable summary (raises on any violation).
    The samples are checked as read_trace checks them, one block at a time,
    and none is kept: the summary reads only the header, the timesteps and
    the labels."""
    timesteps, (n_steps, n_tokens, dims), _, modality = _parse_trace(path, keep=False)
    mods = None
    if modality is not None:
        names = {int(m): m.name for m in Modality}
        mods = {
            names.get(int(v), str(int(v))): int(c)
            for v, c in zip(*np.unique(modality, return_counts=True))
        }
    return {
        "n_tokens": n_tokens,
        "dims": dims,
        "n_steps": n_steps,
        "t_first": float(timesteps[0]),
        "t_last": float(timesteps[-1]),
        "modality": mods,
        "size_bytes": Path(path).stat().st_size,
    }


class TraceBackbone:
    """A trace and its replay backbone: the strictly decreasing decision
    `timesteps` as floats, `outputs` over blocks, the float32 (n_steps,
    n_tokens, dims) array, frozen without a copy, and the uint8 `modality`
    labels, one per token, or None. The constructor holds every rule a trace
    file keeps, so whatever it accepts write_trace can store. evaluate()
    returns the output stored at the timestep's value. Replay is open-loop by
    construction; the latent argument is ignored beyond a shape check."""

    def __init__(self, timesteps, blocks: np.ndarray, modality=None):
        self.timesteps = ts = tuple(map(float, timesteps))
        if not isinstance(blocks, np.ndarray) or blocks.dtype != np.float32:
            raise ParameterError(
                "trace blocks must be a float32 array, got "
                f"{getattr(blocks, 'dtype', type(blocks).__name__)}"
            )
        if blocks.ndim != 3 or len(blocks) != len(ts):
            raise DimensionError(f"blocks {blocks.shape} for {len(ts)} timesteps")
        if 0 in blocks.shape:  # read_trace rejects such a trace as degenerate
            raise DimensionError(f"output blocks must not be empty, got shape {blocks.shape}")
        if not all(map(math.isfinite, ts)):
            raise ParameterError("trace timesteps must be finite")
        for a, b in zip(ts, ts[1:]):
            if not b < a:
                raise OrderingError(f"trace timesteps must be strictly decreasing: {b} after {a}")
        # min and max carry a NaN through, and allocate nothing payload-sized
        if not math.isfinite(blocks.min()) or not math.isfinite(blocks.max()):
            bad = next(i for i, b in enumerate(blocks) if not np.isfinite(b).all())
            raise ParameterError(f"output block {bad} holds a non-finite value")
        self.shape = blocks.shape[1:]
        if modality is not None:
            labels = np.asarray(modality)
            if labels.shape != self.shape[:1]:
                raise DimensionError(
                    f"modality labels must have shape ({self.shape[0]},), got {labels.shape}"
                )
            if labels.min() < 0 or labels.max() > 255:
                raise ParameterError("modality labels must fit in one byte")
            modality = labels.astype(np.uint8, copy=False)
            modality.setflags(write=False)
        blocks.setflags(write=False)
        self.outputs = TraceOutputs(blocks)
        self.modality = modality
        self._by_value = {v: i for i, v in enumerate(ts)}

    def initial_latent(self) -> TokenMatrix:
        return self.outputs[0]

    def evaluate(self, z: TokenMatrix, t: Timestep) -> TokenMatrix:
        if z.shape != self.shape:
            raise DimensionError(
                f"latent shape {z.shape} does not match trace {self.shape}"
            )
        i = self._by_value.get(t.value)
        if i is None:
            raise ParameterError(f"timestep {t.value!r} not present in trace")
        return self.outputs[i]

    def replay_grid(self) -> tuple[Timestep, ...]:
        """Decision timesteps plus one extrapolated terminal node."""
        ts = self.timesteps
        step = ts[-2] - ts[-1] if len(ts) >= 2 else 1.0
        return tuple(Timestep(v, i) for i, v in enumerate(ts + (ts[-1] - step,)))
