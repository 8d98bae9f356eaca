"""Per-dimension fine histograms (the first pass of Algorithm 2).

Every rank scans its local records once to build a fine histogram in
each dimension; a Reduce produces the global histogram from which the
adaptive grid is computed.  Domains (attribute min/max) are found by the
same kind of chunked local pass + Reduce when not supplied by the user.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DataError
from ..io.chunks import DataSource, charged_chunks
from ..io.resilient import RetryPolicy
from ..parallel.comm import Comm


def local_domains(source: DataSource, comm: Comm, chunk_records: int,
                  start: int = 0, stop: int | None = None,
                  retry: RetryPolicy | None = None) -> np.ndarray:
    """Per-dimension ``(min, max)`` over this rank's records, as a
    ``(d, 2)`` array; ±inf rows when the rank owns no records."""
    d = source.n_dims
    lo = np.full(d, np.inf)
    hi = np.full(d, -np.inf)
    for chunk in charged_chunks(source, comm, chunk_records, start, stop,
                                retry=retry):
        comm.charge_cells(chunk.shape[0] * d)
        np.minimum(lo, chunk.min(axis=0), out=lo)
        np.maximum(hi, chunk.max(axis=0), out=hi)
    return np.stack([lo, hi], axis=1)


def global_domains(source: DataSource, comm: Comm, chunk_records: int,
                   start: int = 0, stop: int | None = None,
                   retry: RetryPolicy | None = None) -> np.ndarray:
    """Global per-dimension domains via min/max Reduce.

    Degenerate dimensions (constant value) are widened by a hair so that
    every domain has positive extent.
    """
    local = local_domains(source, comm, chunk_records, start, stop, retry)
    lo = comm.allreduce(local[:, 0], op="min")
    hi = comm.allreduce(local[:, 1], op="max")
    if np.isinf(lo).any() or np.isinf(hi).any():
        raise DataError("cannot compute domains of an empty data set")
    span = hi - lo
    pad = np.where(span > 0, span * 1e-9, np.maximum(np.abs(hi) * 1e-9, 1e-9))
    return np.stack([lo, hi + pad], axis=1)


def check_domains(domains: np.ndarray, n_dims: int) -> np.ndarray:
    """Validate and canonicalise a ``(d, 2)`` domains array."""
    domains = np.asarray(domains, dtype=np.float64)
    if domains.shape != (n_dims, 2):
        raise DataError(f"domains shape {domains.shape} != ({n_dims}, 2)")
    if (domains[:, 1] - domains[:, 0] <= 0).any():
        raise DataError("all domains must have positive extent")
    return domains


def code_dtype(fine_bins: int) -> np.dtype:
    """The narrowest unsigned dtype holding every code of ``fine_bins``
    fine intervals: ``uint8`` up to 256, ``uint16`` above."""
    return np.min_scalar_type(max(0, fine_bins - 1))


#: values (records × dimensions) per cache block of :func:`block_codes`:
#: a block's float buffer and its tiled ``lo``/``width`` (3 × 256 KiB)
#: stay cache-resident across the five passes of the locate rule
#: (docs/PERFORMANCE.md has the block-size sweep)
BLOCK_VALUES = 32_768


def domain_tiles(domains: np.ndarray, runs: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``width`` of ``(d, 2)`` domains tiled to ``runs``
    records, by default one full :func:`block_codes` run
    (``BLOCK_VALUES // d``): ``(runs, d)`` each, read-only.  A caller
    that codes many blocks under the same domains builds them once and
    passes them to every call (``tiles=``); threads may share them."""
    domains = np.asarray(domains)
    if runs is None:
        runs = max(1, BLOCK_VALUES // max(len(domains), 1))
    tiles = (np.tile(domains[:, 0], (runs, 1)),
             np.tile(domains[:, 1] - domains[:, 0], (runs, 1)))
    for tile in tiles:
        tile.flags.writeable = False
    return tiles


def _scale_clip(values, lo, width, fine_bins: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """The float half of the locate rule, written into ``out`` (a new
    array when ``None``): ``(values - lo) / width * fine_bins`` (in that
    order), then ``fmin(fine_bins - 1)`` and ``fmax(0)``.  Truncating
    the result to an integer dtype gives the codes."""
    with np.errstate(over="ignore"):        # huge values clip anyway
        out = np.subtract(values, lo, out=out)
        out /= width
        out *= fine_bins
    np.fmin(out, fine_bins - 1, out=out)
    np.fmax(out, 0, out=out)
    return out


def fine_codes(values: np.ndarray, lo, width, fine_bins: int) -> np.ndarray:
    """The fine-interval code of every value — the one locate rule of
    the clustering path.

    ``(values - lo) / width * fine_bins`` (in that order), clipped into
    ``[0, fine_bins - 1]`` and truncated.  Values below the domain get
    code 0; values at or above its top, ``+inf`` and NaN get the last
    code (``np.fmin`` returns its non-NaN operand, so NaN needs no
    extra pass).  ``lo``/``width`` are scalars for one column;
    :func:`block_codes` applies the same steps to a record block.
    """
    scaled = _scale_clip(values, lo, width, fine_bins)
    return scaled.astype(code_dtype(fine_bins))


def block_codes(block: np.ndarray, domains: np.ndarray, fine_bins: int,
                out: np.ndarray | None = None, *,
                tiles: tuple[np.ndarray, np.ndarray] | None = None
                ) -> np.ndarray:
    """``(d, n)`` fine codes of an ``(n, d)`` record block under
    ``(d, 2)`` domains — :func:`fine_codes`' rule, value for value.

    The block is walked in runs of ``BLOCK_VALUES // d`` records; each
    run goes through one reused float buffer against ``lo``/``width``
    tiled to the run's shape (so a C-ordered run is one flat pass per
    step, not a broadcast over an inner axis ``d`` long) and is cast
    straight into its columns of ``out``.  ``out`` — a ``(d, n)``
    integer array or view, e.g. the caller's slice of a kept-code
    buffer — is allocated in :func:`code_dtype` when not given.
    ``tiles`` — :func:`domain_tiles` of these same ``domains`` — are
    sliced instead of tiling the domains again on this call.
    """
    block = np.asarray(block)
    n, d = block.shape
    if out is None:
        out = np.empty((d, n), dtype=code_dtype(fine_bins))
    elif out.shape != (d, n):
        raise DataError(f"codes buffer shape {out.shape} != ({d}, {n})")
    if tiles is None:
        tiles = domain_tiles(domains,
                             max(1, min(n, BLOCK_VALUES // max(d, 1))))
    elif tiles[0].shape[1:] != (d,):
        raise DataError(f"tiles of shape {tiles[0].shape} for {d} dims")
    lo_run, width_run = tiles
    step = max(1, min(n, len(lo_run)))
    buf = np.empty((step, d), dtype=np.result_type(block, lo_run))
    for r0 in range(0, n, step):
        m = min(step, n - r0)
        scaled = _scale_clip(block[r0:r0 + m], lo_run[:m], width_run[:m],
                             fine_bins, buf[:m])
        np.copyto(out[:, r0:r0 + m], scaled.T, casting="unsafe")
    return out


def code_histogram(codes: np.ndarray, fine_bins: int) -> np.ndarray:
    """``(d, fine_bins)`` counts of a ``(d, n)`` code matrix."""
    counts = np.empty((codes.shape[0], fine_bins), dtype=np.int64)
    for j, row in enumerate(codes):
        counts[j] = np.bincount(row, minlength=fine_bins)
    return counts


def block_histogram(block: np.ndarray, domains: np.ndarray,
                    fine_bins: int, *,
                    codes: np.ndarray | None = None,
                    expired: Sequence[np.ndarray] = ()) -> np.ndarray:
    """``(d, fine_bins)`` histogram of one record block — the exact
    per-block operation of the batch pass, factored out so the
    streaming engine bins deltas **identically** (the same
    :func:`fine_codes`).  Integer counts are additive over any block
    partition, which is what makes the maintained streaming histogram
    bit-equal to a cold pass over the live records.  With ``codes`` —
    a ``(d, n)`` buffer — the block's fine codes are also kept there,
    as :func:`fine_histogram_local` keeps them.  ``expired`` are the
    ``(d, m)`` codes of records leaving a streaming window; their
    counts are subtracted, so the result is the window histogram's
    exact change.
    """
    domains = np.asarray(domains, dtype=np.float64)
    binned = block_codes(block, domains, fine_bins, out=codes)
    counts = code_histogram(binned, fine_bins)
    for old in expired:
        counts -= code_histogram(old, fine_bins)
    return counts


def fine_histogram_local(source: DataSource, comm: Comm, domains: np.ndarray,
                         fine_bins: int, chunk_records: int,
                         start: int = 0, stop: int | None = None,
                         retry: RetryPolicy | None = None, *,
                         codes: np.ndarray | None = None) -> np.ndarray:
    """This rank's ``(d, fine_bins)`` histogram over its local records.

    Values are clipped into their domain so that every record lands in a
    fine bin (out-of-domain values can only occur if the caller passed
    domains narrower than the data).  With ``codes`` — a ``(d, n)``
    buffer over the ``n`` records of ``[start, stop)`` — the pass also
    keeps every record's fine codes there, so staging the bitmap index
    reads no floats.
    """
    d = source.n_dims
    domains = check_domains(domains, d)
    if fine_bins <= 0:
        raise DataError(f"fine_bins must be positive, got {fine_bins}")
    counts = np.zeros((d, fine_bins), dtype=np.int64)
    offset = 0
    for chunk in charged_chunks(source, comm, chunk_records, start, stop,
                                retry=retry):
        comm.charge_cells(chunk.shape[0] * d)
        out = None if codes is None else codes[:, offset:offset + len(chunk)]
        counts += code_histogram(block_codes(chunk, domains, fine_bins, out),
                                 fine_bins)
        offset += len(chunk)
    return counts


def fine_histogram_global(source: DataSource, comm: Comm, domains: np.ndarray,
                          fine_bins: int, chunk_records: int,
                          start: int = 0, stop: int | None = None,
                          retry: RetryPolicy | None = None, *,
                          codes: np.ndarray | None = None) -> np.ndarray:
    """Global fine histogram: local pass plus a sum Reduce (§4.1);
    ``codes`` as in :func:`fine_histogram_local`."""
    local = fine_histogram_local(source, comm, domains, fine_bins,
                                 chunk_records, start, stop, retry,
                                 codes=codes)
    return comm.allreduce(local, op="sum")
