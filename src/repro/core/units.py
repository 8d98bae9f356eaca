"""Unit tables: the paper's flat byte arrays of candidate/dense units.

"Each candidate dense unit (CDU) and, similarly a dense unit, in the
k-th dimension is completely specified by the k dimensions of the unit
and their corresponding k bin indices.  In our implementation we store
this information in the form of an array of bytes, one array for the bin
indices of all the CDUs and one for the CDU dimensions." (§4.2)

A :class:`UnitTable` holds ``n`` units of one level ``k`` as two
``(n, k)`` uint8 arrays — ``dims`` (sorted per row) and ``bins`` — plus
helpers for canonical ordering, messaging (``tobytes``/``frombytes``)
and per-subspace grouping.

The byte layout doubles as *key material*, packed two ways into
uint64 words:

* every (dim, bin) cell packs into one uint16 token (``dim << 8 |
  bin``, :meth:`UnitTable.tokens`), and a row of ``k`` tokens into
  ``ceil(k/4)`` words (:func:`pack_tokens`) — the keys of repeat
  elimination and of the sub-signature hash join in
  :mod:`repro.core.candidates`;
* a unit's flat ``dims ‖ bins`` row, zero-padded and read big-endian,
  packs into ``ceil(2k/8)`` words whose order is the canonical
  (dims, bins) order — the keys of :meth:`UnitTable.sort`,
  :meth:`UnitTable.unique` and :meth:`UnitTable.contains_rows` (the
  dims alone pack into the subspace key the same way).

Equal units ⇔ equal words either way, so grouping, ordering and
membership all reduce to one vectorised sort over a few integer
columns (:func:`group_sort`) instead of pairwise row comparisons or
byte-string keys.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import DataError
from ..types import MAX_BINS

#: dims and bins are bytes, as in the paper — so at most 256 of each
MAX_DIMS = 256

_HEADER = struct.Struct("<qq")  # n_units, level


@dataclass(frozen=True)
class UnitTable:
    """``n`` units of dimensionality ``k``.

    ``dims[i]`` is the sorted tuple of dimensions of unit ``i`` and
    ``bins[i, j]`` the bin index of unit ``i`` in dimension ``dims[i, j]``.
    """

    dims: np.ndarray
    bins: np.ndarray

    def __post_init__(self) -> None:
        dims = np.ascontiguousarray(np.asarray(self.dims, dtype=np.uint8))
        bins = np.ascontiguousarray(np.asarray(self.bins, dtype=np.uint8))
        if dims.ndim != 2 or bins.shape != dims.shape:
            raise DataError(
                f"dims/bins must be matching 2-D arrays, got "
                f"{dims.shape} and {bins.shape}")
        if dims.shape[1] == 0 and dims.shape[0] > 0:
            raise DataError("units must span at least one dimension")
        if dims.shape[1] > 1 and dims.shape[0] > 0:
            if not (np.diff(dims.astype(np.int16), axis=1) > 0).all():
                raise DataError("unit dimensions must be strictly increasing")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "bins", bins)

    # -- construction ------------------------------------------------------
    @classmethod
    def empty(cls, level: int) -> "UnitTable":
        """A table of zero units at dimensionality ``level``."""
        if level < 1:
            raise DataError(f"level must be >= 1, got {level}")
        return cls(dims=np.empty((0, level), dtype=np.uint8),
                   bins=np.empty((0, level), dtype=np.uint8))

    @classmethod
    def from_pairs(cls, units: Sequence[Sequence[tuple[int, int]]]) -> "UnitTable":
        """Build from an iterable of ``[(dim, bin), ...]`` units (each is
        sorted by dimension automatically)."""
        if not units:
            raise DataError("from_pairs needs at least one unit; "
                            "use UnitTable.empty(level) for none")
        level = len(units[0])
        dims = np.empty((len(units), level), dtype=np.uint8)
        bins = np.empty((len(units), level), dtype=np.uint8)
        for i, unit in enumerate(units):
            if len(unit) != level:
                raise DataError("all units must have the same dimensionality")
            for d, b in unit:
                if not 0 <= d < MAX_DIMS or not 0 <= b < MAX_BINS:
                    raise DataError(f"(dim, bin) = ({d}, {b}) out of byte range")
            ordered = sorted(unit)
            dims[i] = [d for d, _ in ordered]
            bins[i] = [b for _, b in ordered]
        return cls(dims=dims, bins=bins)

    # -- basic properties --------------------------------------------------
    @property
    def n_units(self) -> int:
        return int(self.dims.shape[0])

    @property
    def level(self) -> int:
        """Dimensionality ``k`` of every unit in the table."""
        return int(self.dims.shape[1])

    def __len__(self) -> int:
        return self.n_units

    def unit(self, i: int) -> tuple[tuple[int, int], ...]:
        """Unit ``i`` as a tuple of ``(dim, bin)`` pairs."""
        return tuple(zip(self.dims[i].tolist(), self.bins[i].tolist()))

    def __iter__(self) -> Iterator[tuple[tuple[int, int], ...]]:
        for i in range(self.n_units):
            yield self.unit(i)

    # -- row algebra ---------------------------------------------------------
    def tokens(self) -> np.ndarray:
        """``(n, k)`` uint16 token matrix: cell ``(i, j)`` is
        ``dims[i, j] << 8 | bins[i, j]``.

        Tokens order like (dim, bin) pairs, so each row is strictly
        increasing (dims are), and two units share a (dim, bin) cell iff
        they share a token — the key material of the sub-signature hash
        join and of packed-key repeat grouping.
        """
        return ((self.dims.astype(np.uint16) << 8)
                | self.bins.astype(np.uint16))

    def select(self, index: np.ndarray) -> "UnitTable":
        """Sub-table of the rows selected by an index or boolean mask."""
        return UnitTable(dims=self.dims[index], bins=self.bins[index])

    def concat(self, other: "UnitTable") -> "UnitTable":
        """Row-wise concatenation (same level required)."""
        if other.n_units == 0:
            return self
        if self.n_units == 0:
            return other
        if other.level != self.level:
            raise DataError(
                f"cannot concat level {other.level} onto level {self.level}")
        return UnitTable(dims=np.concatenate([self.dims, other.dims]),
                         bins=np.concatenate([self.bins, other.bins]))

    @staticmethod
    def concat_all(tables: Sequence["UnitTable"]) -> "UnitTable":
        """Concatenate several tables in order (used by the parent rank to
        splice per-rank CDU fragments together in rank order)."""
        tables = [t for t in tables if t is not None]
        if not tables:
            raise DataError("concat_all needs at least one table")
        out = tables[0]
        for t in tables[1:]:
            out = out.concat(t)
        return out

    def _row_words(self, dims_only: bool = False) -> np.ndarray:
        """``(n, ceil(2k/8))`` uint64 key words of the combined rows
        (dims then bins), each row zero-padded to whole words and read
        big-endian; with ``dims_only``, the ``ceil(k/8)`` words of the
        dims rows alone (equal words ⇔ same subspace).

        Big-endian words compare like the bytes they hold, so the
        lexicographic order of the word rows is the lexicographic
        (dims, bins) byte order of the units; equal units ⇔ equal word
        rows.  :meth:`canonical_order`, :meth:`unique` and
        :meth:`contains_rows` all sort these few integer columns
        instead of 2k byte columns or void keys.
        """
        rows = self.dims if dims_only else np.hstack([self.dims, self.bins])
        n, width = rows.shape
        packed = np.zeros((n, max(1, -(-width // 8))), dtype=">u8")
        packed.view(np.uint8)[:, :width] = rows
        return packed.astype(np.uint64)

    def canonical_order(self) -> np.ndarray:
        """Indices that sort units lexicographically by (dims, bins);
        stable, so repeated units keep their original relative order."""
        return group_sort(self._row_words())

    def sort(self) -> "UnitTable":
        """Lexicographically sorted copy (deterministic canonical form)."""
        return self.select(self.canonical_order())

    def repeat_mask(self, words: np.ndarray | None = None) -> np.ndarray:
        """Boolean mask marking every unit that duplicates an
        earlier-indexed unit (the paper's Nrepeat elements).

        Grouping runs over the packed uint64 row keys — the same key
        space the sub-signature hash join sorts — so marking costs one
        integer sort instead of a byte-string ``np.unique`` over the
        2k-wide rows.  ``words`` may pass a precomputed
        ``pack_tokens(self.tokens())`` matrix so a caller that already
        packed the keys (the dedup phase shares them with the populate
        order) pays the pack once.
        """
        if self.n_units == 0:
            return np.zeros(0, dtype=bool)
        if words is None:
            words = pack_tokens(self.tokens())
        return first_occurrence(words) != np.arange(self.n_units)

    def unique(self) -> "UnitTable":
        """Drop repeated units; result is in canonical (sorted) order."""
        if self.n_units == 0:
            return self
        words = self._row_words()
        order = group_sort(words)
        return self.select(order[group_starts(words[order])])

    def contains_rows(self, other: "UnitTable") -> np.ndarray:
        """For each unit of ``other`` (same level), whether it appears in
        this table."""
        if other.level != self.level:
            raise DataError("level mismatch in contains_rows")
        # group both tables' keys at once: a unit of ``other`` is a
        # member iff the first row of its key run is one of ours
        words = np.concatenate([self._row_words(), other._row_words()])
        return first_occurrence(words)[self.n_units:] < self.n_units

    # -- grouping ------------------------------------------------------------
    def group_by_subspace(self) -> dict[tuple[int, ...], np.ndarray]:
        """Map each distinct subspace (dims tuple) to the row indices of
        the units living in it, subspaces in first-appearance order."""
        first = first_occurrence(self._row_words(dims_only=True))
        order = np.argsort(first, kind="stable")
        heads, starts = np.unique(first[order], return_index=True)
        return {tuple(self.dims[head].tolist()): rows
                for head, rows in zip(heads, np.split(order, starts[1:]))}

    def subspaces(self) -> list[tuple[int, ...]]:
        """Distinct subspaces present, in first-appearance order."""
        return list(self.group_by_subspace().keys())

    # -- messaging -------------------------------------------------------------
    def tobytes(self) -> bytes:
        """Serialise for a single-message exchange (header + dims + bins)."""
        return (_HEADER.pack(self.n_units, self.level)
                + self.dims.tobytes() + self.bins.tobytes())

    @classmethod
    def frombytes(cls, payload: bytes) -> "UnitTable":
        """Inverse of :meth:`tobytes`."""
        if len(payload) < _HEADER.size:
            raise DataError("unit table payload truncated")
        n, level = _HEADER.unpack_from(payload)
        if n < 0 or level < 1:
            raise DataError(f"bad unit table header ({n}, {level})")
        expected = _HEADER.size + 2 * n * level
        if len(payload) != expected:
            raise DataError(
                f"unit table payload is {len(payload)} bytes, expected {expected}")
        body = np.frombuffer(payload, dtype=np.uint8, offset=_HEADER.size)
        dims = body[:n * level].reshape(n, level).copy()
        bins = body[n * level:].reshape(n, level).copy()
        return cls(dims=dims, bins=bins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitTable):
            return NotImplemented
        return (self.dims.shape == other.dims.shape
                and bool(np.array_equal(self.dims, other.dims))
                and bool(np.array_equal(self.bins, other.bins)))

    def __hash__(self) -> int:  # frozen dataclass wants it; tables are big
        return hash((self.dims.shape, self.dims.tobytes(), self.bins.tobytes()))


# -- packed-key grouping ------------------------------------------------------

#: uint16 tokens per uint64 key word
TOKENS_PER_WORD = 4


def pack_tokens(tokens: np.ndarray) -> np.ndarray:
    """Pack ``(n, t)`` uint16 token rows into ``(n, ceil(t/4))`` uint64
    key words (tokens fill each word high-to-low, zero-padded).

    Equal rows ⇔ equal key words, and because tokens fill high-to-low
    the lexicographic order of the word rows equals the lexicographic
    order of the token rows — one integer sort replaces a byte-string
    sort.  ``t == 0`` packs to a single zero word per row, putting every
    row in one group.
    """
    tokens = np.asarray(tokens, dtype=np.uint64)
    n, t = tokens.shape
    if t == 0:
        return np.zeros((n, 1), dtype=np.uint64)
    n_words = -(-t // TOKENS_PER_WORD)
    words = np.zeros((n, n_words), dtype=np.uint64)
    for j in range(t):
        w, slot = divmod(j, TOKENS_PER_WORD)
        shift = np.uint64(16 * (TOKENS_PER_WORD - 1 - slot))
        words[:, w] |= tokens[:, j] << shift
    return words


def row_keys(rows: np.ndarray) -> np.ndarray:
    """A 1-D void view of a 2-D array's rows: one memcmp-comparable,
    hashable key per row.

    Equal rows ⇔ equal keys, which is how the serving cache
    (:class:`repro.serve.ClusterServer`) sorts and probes packed bin
    signatures too wide for one uint64.  Void keys order by memcmp, not
    by integer value; use them for grouping and equality, not for
    numeric order.
    """
    rows = np.ascontiguousarray(rows)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise DataError(f"row_keys needs a non-empty 2-D array, "
                        f"got shape {rows.shape}")
    void = np.dtype((np.void, rows.shape[1] * rows.dtype.itemsize))
    return rows.view(void).ravel()


def group_sort(words: np.ndarray) -> np.ndarray:
    """Stable order grouping equal key-word rows together (ascending);
    within a group the original indices stay ascending."""
    if words.shape[1] == 1:
        return np.argsort(words[:, 0], kind="stable")
    return np.lexsort(tuple(words[:, c] for c in range(words.shape[1] - 1,
                                                       -1, -1)))


def group_starts(sorted_words: np.ndarray) -> np.ndarray:
    """Boolean mask over rows of an already-sorted key matrix, True at
    the first row of each run of equal keys."""
    n = sorted_words.shape[0]
    starts = np.ones(n, dtype=bool)
    if n > 1:
        starts[1:] = (sorted_words[1:] != sorted_words[:-1]).any(axis=1)
    return starts


def first_occurrence(words: np.ndarray) -> np.ndarray:
    """For each key-word row, the smallest index holding an equal row."""
    n = words.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = group_sort(words)
    starts = group_starts(words[order])
    run_id = np.cumsum(starts) - 1
    run_first = order[starts]      # stable sort ⇒ first of run = min index
    first = np.empty(n, dtype=np.int64)
    first[order] = run_first[run_id]
    return first
