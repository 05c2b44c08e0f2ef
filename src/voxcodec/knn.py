"""Exact k-nearest-neighbour search over sorted cell keys.

The reference is bucketed into cubic cells of side 2**level lattice units,
counted from its min corner, and the cells are sorted by packed key.  Each
block of PROBE_BLOCK queries probes its 3x3x3 cell neighbourhoods with one
sorted lookup.  Every reference point outside a query's probed cube is at
least r away, r being the query's distance to the outside of the cube, so
the ball of radius r is certified: only the candidates strictly inside it
are ranked (all of them where the cube covers every occupied cell), and the
query is done when at least k are.  The rest go round again with the cell
side doubled, from a first level whose certified ball holds about k
reference points on average.  Results are exact squared Euclidean distances
dx^2 + dy^2 + dz^2, added in that order from per-axis coordinate columns
(the bytes of a brute-force ``((ref - q) ** 2).sum(axis=1)``), with ties
broken by reference index (lexicographic coordinate order for a lex-sorted
reference).  Candidate pairs are ranked in blocks of up to PAIR_BLOCK with
one sort of a distinct int64 key: query, rank of d^2 among the block's
distinct values (itself from one sort), reference row.  Brute force is the
test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .sparse import SparseTensor, as_coords, as_positions, key_steps, lookup, pack_keys

PROBE_BLOCK = 1024  # queries whose 27 neighbour cells are looked up at once
PAIR_BLOCK = 8192  # candidate (query, reference) pairs ranked at once
MAX_POINTS = 1 << 31  # reference size that keeps the ranking key in int64
FIRST_LEVEL = 1  # the finest cells probed are 2 lattice units wide
# Cell 0 sits just above the bottom of the 21-bit key range, so the probes of
# a query clamped to the occupied cells +-1 pack for any 21-bit reference.
_CELL0 = 2 - (1 << 20)
# packed key steps from the low corner of a 3x3x3 neighbourhood to its cells
_STEPS = key_steps(np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), -1).reshape(-1, 3))


class GridIndex:
    """Reference points bucketed by cell, one sorted key array per cell size."""

    def __init__(self, coords: np.ndarray):
        coords = as_coords(coords)
        if coords.shape[0] == 0:
            raise ContractViolation("reference point set is empty")
        if coords.shape[0] > MAX_POINTS:
            raise ContractViolation(f"reference point set exceeds {MAX_POINTS} points")
        self.n = coords.shape[0]
        self.cols = np.ascontiguousarray(coords.T, dtype=np.float64)  # x, y, z rows
        self.lo = coords.min(axis=0)
        self._rel = coords - self.lo
        self._levels = {}
        self.cells(FIRST_LEVEL)

    def cells(self, level: int):
        """(keys, starts, sizes, order, top) for cells of side 2**level: the
        sorted distinct cell keys, each cell's run in ``order`` (reference
        rows sorted by cell) as its start and size, and the highest occupied
        cell per axis."""
        if level not in self._levels:
            cell = self._rel >> level
            keys = pack_keys(cell + _CELL0)
            order = keys.argsort(kind="stable")
            keys = keys.take(order)
            starts = np.r_[True, keys[1:] != keys[:-1]].nonzero()[0]
            sizes = np.diff(starts, append=keys.size)
            self._levels[level] = (keys.take(starts), starts, sizes, order, cell.max(axis=0))
        return self._levels[level]

    def first_level(self, m: int) -> int:
        """The level to start probing for m neighbours: the lowest whose
        certified ball, at least one cell side in radius and so about 4.19
        (4/3 pi) occupied cells' worth of points, holds m of them."""
        level = FIRST_LEVEL
        while 4.19 * self.n < m * self.cells(level)[0].size:
            level += 1
        return level


def _value_ranks(v: np.ndarray):
    """Each value's rank among the distinct values of v, and their count U:
    the inverse and size ``np.unique(v, return_inverse=True)`` gives, from
    one argsort, a neighbour test and a running count."""
    by = v.argsort()
    s = v.take(by)
    new = np.empty(s.size, dtype=bool)
    new[:1] = False
    np.not_equal(s[1:], s[:-1], out=new[1:])
    count = new.cumsum()
    ranks = np.empty_like(count)
    ranks[by] = count
    return ranks, int(count[-1]) + 1 if s.size else 0


def _probe(index: GridIndex, q: np.ndarray, level: int, m: int):
    """Rank the reference points of each query's 3x3x3 cell neighbourhood
    that lie strictly inside its certified ball (all of them where the cube
    covers every occupied cell).

    Returns (done, idx, d2): a query is done when it has at least m ranked
    candidates; its rows of idx/d2 are then the m best by (d2, index).
    Rows that are not done are undefined.
    """
    keys, starts, sizes, order, top = index.cells(level)
    side = 1 << level
    # a reference spans under 2**21 units and cells are at least 2 wide, so
    # top + 1 <= 2**20 and the neighbourhood's high corner, cell + 1 + _CELL0,
    # is at most 3 in key coordinates: only the low corner needs packing
    cell = np.floor((q - index.lo) / side).clip(-1, top + 1).astype(np.int64)
    low = pack_keys(cell + (_CELL0 - 1))
    pos, hit = lookup(keys, (low[:, None] + _STEPS).reshape(-1))
    count = np.where(hit, sizes.take(pos), 0)
    per_query = count.reshape(-1, 27).sum(axis=1)
    # any point outside the probed cube is at least r away on some axis
    lo_b = index.lo + (cell - 1) * side
    hi_b = index.lo + (cell + 2) * side
    r2 = np.maximum(np.minimum(q - lo_b, hi_b - q).min(axis=1), 0.0) ** 2
    covers = ((cell <= 1) & (cell + 1 >= top)).all(axis=1)
    covers = covers if covers.any() else None
    done = np.zeros(q.shape[0], dtype=bool)
    idx = np.empty((q.shape[0], m), dtype=np.int64)
    d2 = np.empty((q.shape[0], m))
    qx, qy, qz = np.ascontiguousarray(q.T)
    x, y, z = index.cols
    cum = per_query.cumsum()
    a = 0
    while a < q.shape[0]:
        # the next queries whose candidates fit in one pair block (at least one)
        b = max(a + 1, int(cum.searchsorted(cum[a] - per_query[a] + PAIR_BLOCK, "right")))
        n, cnt = count[27 * a : 27 * b], per_query[a:b]
        qid = np.arange(a, b).repeat(cnt)
        first = starts.take(pos[27 * a : 27 * b]) - (n.cumsum() - n)
        rid = order.take(first.repeat(n) + np.arange(qid.size))
        # dx^2 + dy^2 + dz^2 in this order: the bytes of ((ref - q) ** 2).sum(axis=1)
        dist = x.take(rid)
        dist -= qx[a:b].repeat(cnt)
        dist *= dist
        for col, qcol in ((y, qy), (z, qz)):
            d = col.take(rid)
            d -= qcol[a:b].repeat(cnt)
            d *= d
            dist += d
        # strict: a point on the cube's far face is r away and may win the tie on index
        inside = dist < r2[a:b].repeat(cnt)
        if covers is not None:
            inside |= covers[a:b].repeat(cnt)
        sel = inside.nonzero()[0]
        qid, rid, dist = qid.take(sel), rid.take(sel), dist.take(sel)
        cnt = np.bincount(qid - a, minlength=b - a)
        # one distinct key per pair orders it by (query, d2, index): the
        # query's place among the block's queries with candidates (< Qc), the
        # rank of its d2 among the block's U distinct values, its row (< N).
        # Each of the P pairs has a query and a value, so Qc, U <= P.  A
        # block of several queries has P <= PAIR_BLOCK, so key < 2**26 N; a
        # block of one has Qc = 1 and its candidates are distinct rows, so
        # key < U N <= N**2.  N <= MAX_POINTS = 2**31 keeps both below 2**63.
        rank_d, u = _value_ranks(dist)
        nz = cnt[cnt > 0]
        qd = (np.arange(nz.size) * u).repeat(nz) + rank_d
        ranked = (qd * index.n + rid).argsort()
        # a query's pairs are a run of the ranked order; its first m are its best
        enough = cnt >= m
        runs = (cnt.cumsum() - cnt)[enough]
        take = ranked.take((runs[:, None] + np.arange(m)).reshape(-1))
        rows = a + enough.nonzero()[0]
        idx[rows] = rid.take(take).reshape(-1, m)
        d2[rows] = dist.take(take).reshape(-1, m)
        done[rows] = True
        a = b
    return done, idx, d2


def knn(queries, reference, k: int):
    """k nearest reference points for each query position.

    Args:
        queries: (Q, 3) finite real positions.
        reference: SparseTensor or (N, 3) integer coordinate array, lex-sorted.
        k: neighbours requested, an int or NumPy integer (not bool) >= 1;
            clamped to N.

    Returns:
        (indices, sqdist) arrays of shape (Q, min(k, N)), each row ordered by
        (distance, index).
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ContractViolation(f"k must be an integer >= 1, got {k!r:.40}")
    index = GridIndex(reference.coords if isinstance(reference, SparseTensor) else reference)
    q = as_positions(queries)
    m = min(k, index.n)
    idx = np.empty((q.shape[0], m), dtype=np.int64)
    d2 = np.empty((q.shape[0], m), dtype=np.float64)
    first = index.first_level(m)
    for s in range(0, q.shape[0], PROBE_BLOCK):
        block = np.arange(s, min(s + PROBE_BLOCK, q.shape[0]))
        level = first
        while block.size:
            done, bi, bd = _probe(index, q[block], level, m)
            idx[block[done]], d2[block[done]] = bi[done], bd[done]
            block = block[~done]
            level += 1
    return idx, d2
