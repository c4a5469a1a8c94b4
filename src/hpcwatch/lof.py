"""Local Outlier Factor over one-dimensional point sets.

Density-based outlier scoring for a window of counter deltas: each point is
compared to the density of its k nearest neighbors, and the score is the
ratio of their average local reachability density to the point's own.  A
score near 1 means the point sits in a region as dense as its neighborhood;
larger scores mean sparser surroundings, i.e. stronger outliers.

The point set is the bare multiset of delta values; indices identify points
(they are positions in a time series) but do not participate in distance.
Neighborhoods include every point tied at exactly the k-th distance, so a
neighborhood may hold more than k members.

Degenerate windows are given explicit conventions instead of NaNs:

* all duplicates: every lrd is +inf and every score is 1 (nothing sticks out)
* a point whose own lrd is +inf among finite-density neighbors scores the
  minimum positive float (it is infinitely denser than its surroundings);
  with ties included this cannot actually arise, but the branch keeps the
  function total
* a finite-density point with an infinitely dense neighbor scores +inf

Three kernels compute the same numbers:

* ``_tables`` builds n x n distance and membership tables: O(n^2) time and
  memory per window.  It serves ``lof_scores``, the per-push reference
  path.
* ``lof_at`` scores one point of each window in a (W, n) stack.  It sorts
  each row once for every k-distance (O(n log n + n*k)), closes the tie
  cases in form, and builds one distance row for the point and one for
  each of its m neighbors (O(n*m) per window, however wide the stack's
  other neighborhoods are).  It serves the ``Detector``'s window scoring
  for both drivers: the full windows a run of lines completes, across
  counters, in stacks of up to 64, and the warm-up windows of one length
  across counters in one stack.
* ``_sorted_kernel`` sorts once, bisects each point's neighborhood as a
  run of the sorted values, and walks those runs: O(n log n + n*k) time,
  and O(n) memory plus one block of at most BLOCK neighborhood members,
  laid out afresh for each pass instead of all n*k at once.  It serves
  ``lof_all``, which scores whole series (36 000 points for an hour at
  100 ms) as two arrays; ``top_n_outliers`` ranks those and builds a
  ``LofResult`` only for each of the n points it returns.

The two fast kernels take their k-distances from one step,
``_kdist_sorted``, over values sorted once.  The rest of them stays apart:
``lof_at`` built from ``_sorted_kernel``'s run walk gives the same bits on
``detect``'s stacks of 50-point windows at about 2.5x the time per window,
because numpy's per-call overhead in ``_ordered_sums``, ``_runs`` and
``_members`` dominates at that size.

All three add every neighborhood sum's terms one at a time in ascending
point index, the order the brute-force definition uses, so they agree bit
for bit with each other and with that definition.  (numpy's ``sum`` along
a contiguous axis is pairwise from eight terms on; the kernels reduce over
a leading axis or take the last running sum instead.)
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

_TINY = math.nextafter(0.0, 1.0)


class LofResult(NamedTuple):
    index: int
    lrd: float
    lof: float


# ---------------------------------------------------------------------------
# Shared tables
# ---------------------------------------------------------------------------

def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1} for {n} points, got {k}")


def _points(values: np.ndarray | Sequence[float], k: int) -> np.ndarray:
    """``values`` as a 1-D float array of at least k+1 finite points."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D array of points")
    if not np.isfinite(x).all():
        raise ValueError("non-finite point value")
    if x.shape[0] < k + 1:
        raise ValueError(f"need at least {k + 1} points for k={k}, got {x.shape[0]}")
    return x


def _tables(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(k_distance, member mask, lrd, lof) arrays for the whole set.

    The mask row i flags members of point i's neighborhood (ties included,
    center excluded via an infinite diagonal).  Neighborhood sums reduce
    over the leading axis of the C-contiguous transposed tables, which
    numpy adds one row at a time: each sum takes its terms in ascending
    point index, the order ``_sorted_kernel`` uses.  (A row sum,
    ``axis=1``, would be numpy's pairwise summation.)
    """
    n = x.shape[0]
    _check_k(n, k)

    d = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(d, np.inf)

    kdist = np.partition(d, k - 1, axis=1)[:, k - 1]
    # d is symmetric, so member_t[j, i] = d[j, i] <= kdist[i] is mask[i, j]
    member_t = d <= kdist[None, :]
    counts = member_t.sum(axis=0)

    reach_t = np.maximum(d, kdist[:, None])
    reach_sum = np.where(member_t, reach_t, 0.0).sum(axis=0)
    with np.errstate(divide="ignore"):
        lrd = np.where(reach_sum > 0.0, counts / np.where(reach_sum > 0.0, reach_sum, 1.0), np.inf)

    finite_lrd = np.isfinite(lrd)
    member_lrd_sum = np.where(member_t, lrd[:, None], 0.0).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        member_mean = member_lrd_sum / counts
        ratio = member_mean / lrd

    any_finite_member = (member_t & finite_lrd[:, None]).any(axis=0)
    center_inf = ~finite_lrd
    lof_arr = np.where(
        center_inf,
        np.where(any_finite_member, _TINY, 1.0),
        ratio,
    )
    return kdist, member_t.T, lrd, lof_arr


def _column_sums(table: np.ndarray) -> np.ndarray:
    """Sum of each column of a C-contiguous 2-D table, adding its terms one
    at a time from the top.  numpy adds a table row by row, but sums a
    single column pairwise, so that one goes through a running sum."""
    if table.shape[1] == 1:
        return np.add.accumulate(table, axis=0)[-1]
    return np.add.reduce(table, axis=0)


# Most neighborhood run positions one block of ``_sorted_kernel`` lays out
# at once: about 64 bytes each over the arrays that hold them.
BLOCK = 4096

# Segments longer than this are summed one by one; shorter ones together,
# one term slot at a time.
_LONG_SEGMENT = 64


def _ordered_sums(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each nonempty segment ``terms[offsets[i]:offsets[i + 1]]``,
    adding its terms one at a time from left to right.

    A long segment (a point beside a big tie group) would make the slot
    loop run once per term; it takes the last running sum of its own terms
    instead, which adds them in the same order."""
    lengths = np.diff(offsets)
    out = np.empty(lengths.shape[0], dtype=terms.dtype)
    long = lengths > _LONG_SEGMENT
    for i in np.flatnonzero(long).tolist():
        out[i] = np.add.accumulate(terms[offsets[i]:offsets[i + 1]])[-1]
    short = np.flatnonzero(~long)
    if short.size == 0:
        return out
    longest_first = short[np.argsort(-lengths[short], kind="stable")]
    starts = offsets[:-1][longest_first]
    neg_lengths = -lengths[longest_first]  # ascending
    acc = terms[starts].copy()
    for slot in range(1, -int(neg_lengths[0])):
        # the segments longer than slot lead the longest-first order
        active = int(np.searchsorted(neg_lengths, -slot, side="left"))
        acc[:active] += terms[starts[:active] + slot]
    out[longest_first] = acc
    return out


def _kdist_sorted(xs: np.ndarray, k: int) -> np.ndarray:
    """k-distance of every position of ``xs``, sorted along axis 0.

    The k nearest neighbors of a sorted position are a run of it, so the
    k-distance is the smallest, over the k+1 ways to split the run, of its
    farther end.  padded[k:k + n] is ``xs`` with k infinities on each
    side; for sorted position i, the run that splits at j has its left
    end at padded[i + j] and its right end at padded[i + j + k].
    """
    n = xs.shape[0]
    padded = np.empty((n + 2 * k, *xs.shape[1:]))
    padded[:k] = -np.inf
    padded[k + n:] = np.inf
    padded[k:k + n] = xs
    xs = padded[k:k + n]
    kdist = np.full(xs.shape, np.inf)
    left, right = np.empty(xs.shape), np.empty(xs.shape)
    for j in range(k + 1):
        np.subtract(xs, padded[j:j + n], out=left)
        np.subtract(padded[j + k:j + k + n], xs, out=right)
        np.maximum(left, right, out=left)
        np.minimum(kdist, left, out=kdist)
    return kdist


def _runs(xs: np.ndarray, at: np.ndarray, kdist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and past-the-end position of the run of sorted values ``xs``
    within ``kdist`` of each position ``at``.

    Computed distances never shrink moving away from a value, since
    subtraction rounds monotonically, so each end is found by bisection on
    the computed distance: steps of halving length, from the largest power
    of two not above n down to 1, each taken where its new end is still in
    the run.
    """
    n = xs.shape[0]
    center = xs[at]
    lo = last = at
    for step in [1 << b for b in reversed(range(n.bit_length()))]:
        down = np.maximum(lo - step, 0)
        lo = np.where(center - xs[down] <= kdist, down, lo)
        up = np.minimum(last + step, n - 1)
        last = np.where(xs[up] - center <= kdist, up, last)
    return lo, last + 1


def _members(
    order: np.ndarray, points: np.ndarray, run_lo: np.ndarray, run_len: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every neighborhood member of ``points``, point-major, each point's in
    ascending index with the point itself dropped: the member's point (its
    position in ``points``), the member's index, and the segment offsets."""
    seg = np.repeat(np.arange(points.size), run_len)
    run_start = np.cumsum(run_len) - run_len
    member = order[run_lo[seg] + np.arange(seg.size) - run_start[seg]]
    keep = member != points[seg]
    seg, member = seg[keep], member[keep]
    by_index = np.lexsort((member, seg))
    return seg[by_index], member[by_index], np.append(0, np.cumsum(run_len - 1))


def _sorted_kernel(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lrd, lof) arrays for the whole set in O(n log n + n*k) time and O(n)
    memory plus a block of at most BLOCK neighborhood members (more only
    for a single point whose run is longer).

    In 1-D a neighborhood is a run of the sorted values: computed distances
    never shrink moving away from a value, since subtraction rounds
    monotonically.  The k-distances come from ``_kdist_sorted``.  A point
    with k-distance 0 has more than k copies, so it has lrd +inf and
    scores 1; every other point's run is bisected on the computed distance
    (``_runs``).  Then the lrds, and in a second pass the scores, are
    computed a block of points at a time, each block's members laid out
    afresh in each pass.  Sums over a neighborhood take its members in
    ascending point index, exactly as ``_tables`` does, so both kernels
    give the same bits however the points are cut into blocks.
    """
    n = x.shape[0]
    _check_k(n, k)

    order = np.argsort(x, kind="stable")
    xs = x[order]
    sorted_kdist = _kdist_sorted(xs, k)
    kdist = np.empty(n)
    kdist[order] = sorted_kdist
    lrd = np.full(n, np.inf)
    lof_arr = np.ones(n)
    # a point with k-distance 0 has more than k copies: lrd +inf, score 1
    at = np.flatnonzero(sorted_kdist > 0.0)
    if at.size == 0:
        return lrd, lof_arr
    points = order[at]
    run_lo, run_hi = _runs(xs, at, sorted_kdist[at])
    run_len = run_hi - run_lo
    del xs, sorted_kdist, at, run_hi

    # blocks of points holding at most BLOCK run positions each, or one point
    run_end = np.cumsum(run_len)
    cuts = [0]
    while cuts[-1] < points.size:
        start = cuts[-1]
        limit = run_end[start] - run_len[start] + BLOCK
        cuts.append(max(start + 1, int(np.searchsorted(run_end, limit, side="right"))))
    del run_end
    blocks = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for at in blocks:
            seg, member, offsets = _members(order, points[at], run_lo[at], run_len[at])
            reach = np.maximum(kdist[member], np.abs(x[points[at]][seg] - x[member]))
            lrd[points[at]] = (run_len[at] - 1) / _ordered_sums(reach, offsets)
        for at in blocks:
            seg, member, offsets = _members(order, points[at], run_lo[at], run_len[at])
            member_mean = _ordered_sums(lrd[member], offsets) / (run_len[at] - 1)
            lof_arr[points[at]] = member_mean / lrd[points[at]]
    return lrd, lof_arr


# ---------------------------------------------------------------------------
# Batch operations
# ---------------------------------------------------------------------------

def lof_scores(values: np.ndarray | Sequence[float], k: int) -> np.ndarray:
    """Score array for every point, from the n x n tables."""
    _, _, _, lof_arr = _tables(_points(values, k), k)
    return lof_arr


def lof_at(windows: np.ndarray, k: int, pos: int) -> np.ndarray:
    """Score of point ``pos`` in every row of a (W, n) array of windows,
    bit-identical to ``lof_scores(row, k)[pos]`` row by row.

    A point's score reads only its two-hop neighborhood.  Every k-distance
    comes from one sort per row (``_kdist_sorted``).  Two cases then close
    exactly: a point with k-distance 0 has more than k copies, so it and
    its neighbors have lrd +inf and it scores 1; a finite-density point
    with a neighbor of k-distance 0 has an infinitely dense neighbor and
    scores +inf.  The other rows get one distance row for the point and
    one for each of its m neighbors: O(n*m) per window, however many
    neighbors the stack's other windows have, instead of O(n^2).  Every
    sum adds its terms in ascending point index as ``_tables`` does.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("lof_at expects a 2-D array of windows")
    n_rows, n = x.shape
    _check_k(n, k)
    if not 0 <= pos < n:
        raise IndexError(f"point index {pos} out of range for {n} points")
    if not np.isfinite(x).all():
        raise ValueError("non-finite point value")
    # from here tables are point-major, one column per window, as in
    # ``_tables``: a sum over the leading axis adds its terms in ascending
    # point index
    row = np.arange(n_rows)

    # copies of a value share its k-distance, so any order of ties will do
    order = np.argsort(x, axis=1)
    kdist = np.empty((n, n_rows))
    kdist[order.T, row] = _kdist_sorted(x[row[:, None], order].T, k)
    xt = np.ascontiguousarray(x.T)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the scored point's own neighborhood and lrd (each count is >= k,
        # so a zero reachability sum divides to +inf)
        d = np.abs(xt - xt[pos])
        d[pos] = np.inf
        member = d <= kdist[pos]
        count = np.add.reduce(member, axis=0)
        lrd = count / _column_sums(np.where(member, np.maximum(d, kdist), 0.0))

        has_kdist = kdist[pos] > 0.0
        closed_inf = has_kdist & (member & (kdist == 0.0)).any(axis=0) & np.isfinite(lrd)
        scores = np.where(closed_inf, np.inf, 1.0)
        general = np.flatnonzero(has_kdist & ~closed_inf)
        if general.size == 0:
            return scores

        # one distance column per (window, neighbor) pair: window by
        # window, each window's neighbors in ascending index; two float
        # tables, each reused in place
        pair_window, nbr = np.nonzero(member[:, general].T)
        src = general[pair_window]
        pair = np.arange(src.size)
        nd = np.take(xt, src, axis=1)
        np.subtract(xt[nbr, src], nd, out=nd)
        np.abs(nd, out=nd)
        nd[nbr, pair] = np.inf
        nbr_member = nd <= kdist[nbr, src]
        nbr_reach = np.take(kdist, src, axis=1)
        np.maximum(nd, nbr_reach, out=nbr_reach)
        np.copyto(nbr_reach, 0.0, where=~nbr_member)
        nbr_lrd = np.add.reduce(nbr_member, axis=0) / _column_sums(nbr_reach)

        # each window's neighbor lrds in slots 0..count-1 of its column,
        # the slots past its count left at 0.0
        g_count = count[general]
        first = np.cumsum(g_count) - g_count
        table = np.zeros((int(np.maximum.reduce(g_count)), general.size))
        table[pair - first[pair_window], pair_window] = nbr_lrd
        member_mean = _column_sums(table) / g_count
        any_finite = np.logical_or.reduceat(np.isfinite(nbr_lrd), first)

        g_lrd = lrd[general]
        scores[general] = np.where(
            np.isfinite(g_lrd), member_mean / g_lrd, np.where(any_finite, _TINY, 1.0)
        )
    return scores


def lof_all(points: np.ndarray | Sequence[float], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lrd, lof) arrays, one entry per point in input order, bit-identical
    to ``lof_scores``."""
    return _sorted_kernel(_points(points, k), k)


def top_n_outliers(lrd: np.ndarray, lof: np.ndarray, n: int) -> list[LofResult]:
    """The n highest-scoring points as LofResults, highest first; equal
    scores keep the earlier index first.  Returns fewer than n if fewer
    points exist.  Read with ``top_n_outliers(*lof_all(x, k), n)``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    top = np.argsort(-lof, kind="stable")[:n]
    return list(map(LofResult._make, zip(top.tolist(), lrd[top].tolist(), lof[top].tolist())))
