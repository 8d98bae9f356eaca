"""Seeded inputs for the end-to-end benchmark, built with NumPy alone.

The generators here deliberately do not use :mod:`repro.datagen`: a
change to the program under test must never change what the benchmark
feeds it.

Every planted design (which clusters live in which dimensions, how wide
each extent is, how the stream drifts) is fixed in this file.  The seed
only relabels dimensions, picks each extent's slot and draws the
points, so every seed yields an isomorphic batch lattice: the same CDU
and dense-unit counts per level, hence the same work per run.  (The
stream's box positions come from the seed, so its per-snapshot counts
differ between seeds by about 1%.)  That keeps the run-to-run spread a
property of the machine, not of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: every dimension's domain is [0, DOMAIN)
DOMAIN = 100.0

#: extents sit in 10-unit slots, starting 2 or 3 units in, so extents
#: sharing a dimension are at least 3 units apart and the 1-unit
#: windows of ``bench_params`` (200 fine bins, window 2) align with them
_SLOT = 10

#: batch_d15: ten 5-d clusters over 15 dims; every dim carries 3 or 4
#: clusters, so subspaces overlap but extents never do
D15_SUBSPACES = (
    (0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13, 14),
    (0, 3, 6, 9, 12), (1, 4, 7, 10, 13), (2, 5, 8, 11, 14),
    (0, 4, 7, 11, 14), (1, 5, 8, 9, 12), (2, 3, 6, 10, 13),
    (0, 3, 7, 10, 12),
)

#: batch_deep_d50: six disjoint 8-d clusters over 50 dims (2 dims are
#: pure background) — 6 x C(8, k) dense units at level k, up to 420
D50_SUBSPACES = tuple(tuple(range(8 * c, 8 * c + 8)) for c in range(6))


@dataclass(frozen=True)
class Planted:
    """Records plus the ground truth they were drawn from."""

    records: np.ndarray                          # (n, d) float64
    subspaces: tuple[tuple[int, ...], ...]       # sorted dims per cluster


def domains(n_dims: int) -> np.ndarray:
    """The explicit ``(d, 2)`` domains every workload runs with."""
    return np.array([[0.0, DOMAIN]] * n_dims)


def _width(cluster: int, j: int) -> int:
    # 3-5 units: the widest bin of a unit sets its density threshold,
    # and 5 units keeps a cluster's share above alpha * N * w / DOMAIN
    return 3 + (cluster + j) % 3


def _relabel(rng: np.random.Generator, subspaces, n_dims: int):
    perm = rng.permutation(n_dims)
    return tuple(tuple(sorted(int(perm[d]) for d in dims))
                 for dims in subspaces)


def _slot_starts(rng: np.random.Generator, subspaces, n_dims: int
                 ) -> dict[tuple[int, int], float]:
    """Left edge of every (cluster, dim) extent: distinct slots per dim."""
    users: dict[int, list[int]] = {d: [] for d in range(n_dims)}
    for c, dims in enumerate(subspaces):
        for d in dims:
            users[d].append(c)
    starts = {}
    for d, clusters in users.items():
        slots = rng.choice(int(DOMAIN) // _SLOT, size=len(clusters),
                           replace=False)
        for c, s in zip(clusters, slots):
            starts[(c, d)] = float(s * _SLOT + 2 + rng.integers(0, 2))
    return starts


def planted(seed: int, n_records: int, n_dims: int, design,
            noise_fraction: float = 0.10) -> Planted:
    """``n_records`` points split evenly over the design's clusters —
    uniform inside each cluster's box, uniform over the domain in the
    other dims — plus ``noise_fraction`` uniform noise, shuffled."""
    rng = np.random.default_rng(seed)
    subspaces = _relabel(rng, design, n_dims)
    starts = _slot_starts(rng, subspaces, n_dims)
    n_noise = int(round(noise_fraction * n_records))
    records = rng.random((n_records + n_noise, n_dims)) * DOMAIN
    share = n_records // len(subspaces)
    for c, dims in enumerate(subspaces):
        rows = slice(c * share, (c + 1) * share)
        for j, d in enumerate(dims):
            lo = starts[(c, d)]
            records[rows, d] = lo + rng.random(share) * _width(c, j)
    records = records[rng.permutation(len(records))]
    return Planted(records=records, subspaces=subspaces)


def batch_d15(seed: int, scale: float = 1.0) -> Planted:
    return planted(seed, int(1_000_000 * scale), 15, D15_SUBSPACES)


def batch_deep_d50(seed: int, scale: float = 1.0) -> Planted:
    return planted(seed, int(200_000 * scale), 50, D50_SUBSPACES)


class DriftStream:
    """stream_drift's delta source: 15 dims, three disjoint 4-d clusters
    whose boxes slide sinusoidally (whole units, period ``PERIOD``
    deltas), a quarter of every delta each, the last quarter uniform.
    The window holds 20 deltas, half a period, so the live clusters
    keep changing shape.

    ``block(t)`` is a pure function of ``(seed, t)``, so the benchmark
    can re-create any delta for the cold-run oracle without keeping
    history beyond the window.
    """

    N_DIMS = 15
    PERIOD = 40
    AMPLITUDE = 4
    WIDTH = 5
    SUBSPACES = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.delta = int(10_000 * scale)
        self.window = 20 * self.delta
        rng = np.random.default_rng(seed)
        self.subspaces = _relabel(rng, self.SUBSPACES, self.N_DIMS)
        # base left edges keep the whole sweep inside the domain
        self.base = rng.integers(self.AMPLITUDE + 2,
                                 int(DOMAIN) - self.AMPLITUDE - self.WIDTH
                                 - 2, size=(len(self.subspaces), 4))

    def offset(self, t: int, cluster: int) -> int:
        phase = 2 * np.pi * (t / self.PERIOD + cluster / 3)
        return int(round(self.AMPLITUDE * np.sin(phase)))

    def block(self, t: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, t))
        out = rng.random((self.delta, self.N_DIMS)) * DOMAIN
        share = self.delta // 4
        for c, dims in enumerate(self.subspaces):
            rows = slice(c * share, (c + 1) * share)
            shift = self.offset(t, c)
            for j, d in enumerate(dims):
                lo = float(self.base[c, j] + shift)
                out[rows, d] = lo + rng.random(share) * self.WIDTH
        return out


class ServeTraffic:
    """serve_mixed's batches of 10k records (times ``scale``), repeating
    3 hot batches (rows drawn from a 1,000-row pool of training records)
    then 1 novel batch (uniform over the domain).  ``batch(i)`` is a pure
    function of ``(seed, i)``."""

    POOL = 1_000
    CYCLE = ("hot", "hot", "hot", "novel")

    def __init__(self, seed: int, pool: np.ndarray,
                 scale: float = 1.0) -> None:
        self.seed = seed
        self.size = int(10_000 * scale)
        self.pool = pool
        self.n_dims = pool.shape[1]

    @classmethod
    def hot_pool(cls, seed: int, training: np.ndarray) -> np.ndarray:
        """The hot rows: ``POOL`` distinct training records."""
        rng = np.random.default_rng((seed, 1))
        return training[rng.choice(len(training), cls.POOL, replace=False)]

    def kind(self, i: int) -> str:
        return self.CYCLE[i % len(self.CYCLE)]

    def batch(self, i: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, 2, i))
        if self.kind(i) == "hot":
            return self.pool[rng.integers(0, len(self.pool), self.size)]
        return rng.random((self.size, self.n_dims)) * DOMAIN
