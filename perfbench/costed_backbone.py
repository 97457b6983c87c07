"""A backbone whose calls cost about as much as a small DiT block.

`CostedBackbone` wraps a `SyntheticBackbone`. Each call runs a seeded numpy
pre-norm transformer block on the latent plus a sinusoidal timestep
embedding (single-head attention over all N tokens, then a 2-layer tanh MLP,
`depth` times), folds the block's result into a running checksum, and
returns the wrapped backbone's output unchanged. So the trajectory, every
policy decision and every error figure are bit-identical to the plain
backbone's, and only the wall time per call changes. The weights come from
the workload seed, so nothing is downloaded.
"""

from __future__ import annotations

import math

import numpy as np

from worldcache.backbone_sim import SyntheticBackbone

MLP_WIDTH = 4  # hidden width / token dims, as in DiT blocks


class CostedBackbone:
    cost_full = 1.0

    def __init__(self, inner: SyntheticBackbone, depth: int, seed: int):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.inner = inner
        d = inner.shape[1]
        rng = np.random.default_rng((seed, 0xD17))
        scale = 1.0 / math.sqrt(d)
        self._layers = [
            (
                *(rng.normal(0.0, scale, (d, d)) for _ in range(4)),
                rng.normal(0.0, scale, (d, MLP_WIDTH * d)),
                rng.normal(0.0, scale / math.sqrt(MLP_WIDTH), (MLP_WIDTH * d, d)),
            )
            for _ in range(depth)
        ]
        self._t_freq = rng.uniform(0.0, 1.0, d)
        self.checksum = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.inner.shape

    def initial_latent(self):
        return self.inner.initial_latent()

    def _block(self, h: np.ndarray) -> np.ndarray:
        inv_sqrt_d = 1.0 / math.sqrt(h.shape[1])
        for wq, wk, wv, wo, w1, w2 in self._layers:
            x = _layer_norm(h)
            scores = (x @ wq) @ (x @ wk).T
            scores *= inv_sqrt_d
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=1, keepdims=True)
            h = h + (scores @ (x @ wv)) @ wo
            h = h + np.tanh(_layer_norm(h) @ w1) @ w2
        return h

    def evaluate(self, z, t):
        h = self._block(_layer_norm(z.data) + np.sin(t.value * self._t_freq))
        self.checksum += float(h.sum())
        return self.inner.evaluate(z, t)


def _layer_norm(h: np.ndarray) -> np.ndarray:
    # Pre-norm as in DiT blocks. It also keeps the attention scores in a
    # range where exp() does not underflow: the latent grows to |z| ~ 500
    # along the trajectory, and subnormal arithmetic is slow and erratic.
    centred = h - h.mean(axis=1, keepdims=True)
    return centred / np.sqrt((centred * centred).mean(axis=1, keepdims=True) + 1e-6)
