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


def fine_codes(values: np.ndarray, lo, width, fine_bins: int) -> np.ndarray:
    """The fine-interval code of every value — the one locate rule of
    the clustering path.

    ``(values - lo) / width * fine_bins`` (in that order), clipped into
    ``[0, fine_bins - 1]`` and truncated.  Values below the domain get
    code 0; values at or above its top, ``+inf`` and NaN get the last
    code (``np.fmin`` returns its non-NaN operand, so NaN needs no
    extra pass).  ``lo``/``width`` are scalars for one column or
    ``(d,)`` arrays for an ``(n, d)`` block.
    """
    with np.errstate(over="ignore"):        # huge values clip anyway
        scaled = np.subtract(values, lo)
        scaled /= width
        scaled *= fine_bins
    np.fmin(scaled, fine_bins - 1, out=scaled)
    np.fmax(scaled, 0, out=scaled)
    return scaled.astype(code_dtype(fine_bins))


def block_codes(block: np.ndarray, domains: np.ndarray,
                fine_bins: int) -> np.ndarray:
    """Contiguous ``(d, n)`` :func:`fine_codes` of an ``(n, d)`` record
    block under ``(d, 2)`` domains."""
    lo = domains[:, 0]
    width = domains[:, 1] - domains[:, 0]
    return np.ascontiguousarray(fine_codes(block, lo, width, fine_bins).T)


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
    binned = block_codes(block, domains, fine_bins)
    if codes is not None:
        codes[...] = binned
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
        chunk_codes = block_codes(chunk, domains, fine_bins)
        counts += code_histogram(chunk_codes, fine_bins)
        if codes is not None:
            codes[:, offset:offset + len(chunk)] = chunk_codes
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
