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
  cases in form, and builds distance rows only for the point and its m
  neighbors (O(n*m)).  It serves the detector's window scoring: stacks of
  up to 64 windows, in ``detect`` from every tick one read of stdin holds.
* ``_sorted_kernel`` sorts once and walks runs of the sorted values:
  O(n log n + n*k) time and O(n*k) memory.  It serves ``lof_all``, which
  ranks whole series (36 000 points for an hour at 100 ms).

All three add every neighborhood sum's terms one at a time in ascending
point index, the order the brute-force definition uses, so they agree bit
for bit with each other and with that definition.  (numpy's ``sum`` along
a contiguous axis is pairwise from eight terms on; the kernels reduce over
a leading axis or take the last running sum instead.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_TINY = math.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class LofResult:
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


def _ordered_sums(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each nonempty segment ``terms[offsets[i]:offsets[i + 1]]``,
    adding its terms one at a time from left to right."""
    lengths = np.diff(offsets)
    longest_first = np.argsort(-lengths, kind="stable")
    starts = offsets[:-1][longest_first]
    neg_lengths = -lengths[longest_first]  # ascending
    acc = terms[starts].copy()
    for slot in range(1, -int(neg_lengths[0])):
        # the segments longer than slot lead the longest-first order
        active = int(np.searchsorted(neg_lengths, -slot, side="left"))
        acc[:active] += terms[starts[:active] + slot]
    out = np.empty_like(acc)
    out[longest_first] = acc
    return out


def _sorted_kernel(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lrd, lof) arrays for the whole set in O(n log n + n*k) time and
    O(n*k) memory (more only where many distinct values round to one
    distance from a point).

    In 1-D a neighborhood is a run of the sorted values: computed distances
    never shrink moving away from a value, since subtraction rounds
    monotonically.  Points are grouped by value.  A group of more than k
    copies has k-distance 0, so its points have lrd +inf and score 1.  For
    a smaller group the k-distance is the k-th smallest distance among its
    own copies and the k+1 nearest distinct values on each side; the run
    then widens over every value within it (``abs(x_i - x_j) <= kdist_i``),
    past those candidates too where rounding makes farther values tie.
    Sums over a neighborhood take its members in ascending point index,
    exactly as ``_tables`` does, so both kernels give the same bits.
    """
    n = x.shape[0]
    _check_k(n, k)

    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.ones(n, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    bounds = np.append(np.flatnonzero(first), n)  # group g is xs[bounds[g]:bounds[g + 1]]
    value = xs[bounds[:-1]]
    size = np.diff(bounds)
    n_groups = value.shape[0]

    kdist = np.zeros(n)
    lrd = np.full(n, np.inf)
    lof_arr = np.ones(n)
    small = np.flatnonzero(size <= k)
    if small.size == 0:
        return lrd, lof_arr

    # distances to the k+1 nearest distinct values on each side
    step = np.arange(1, k + 2)
    left = small[:, None] - step
    right = small[:, None] + step
    has_left, has_right = left >= 0, right < n_groups
    left, right = np.where(has_left, left, 0), np.where(has_right, right, 0)
    center = value[small, None]
    dist_left = np.where(has_left, center - value[left], np.inf)
    dist_right = np.where(has_right, value[right] - center, np.inf)

    # k-distance: the nearest candidate distance at which the candidates'
    # copies and the point's own other copies add up to k points
    need = k + 1 - size[small]
    dist = np.concatenate([dist_left, dist_right], axis=1)
    copies = np.concatenate(
        [np.where(has_left, size[left], 0), np.where(has_right, size[right], 0)], axis=1
    )
    by_dist = np.argsort(dist, axis=1, kind="stable")
    dist = np.take_along_axis(dist, by_dist, axis=1)
    reached = np.cumsum(np.take_along_axis(copies, by_dist, axis=1), axis=1)
    kd = dist[np.arange(small.size), np.argmax(reached >= need[:, None], axis=1)]

    # neighborhood run: every distinct value within kd on either side
    n_left = np.count_nonzero(has_left & (dist_left <= kd[:, None]), axis=1)
    n_right = np.count_nonzero(has_right & (dist_right <= kd[:, None]), axis=1)
    for i in np.flatnonzero((n_left > k) | (n_right > k)):
        g, r = small[i], kd[i]
        while g - n_left[i] > 0 and value[g] - value[g - n_left[i] - 1] <= r:
            n_left[i] += 1
        while g + n_right[i] < n_groups - 1 and value[g + n_right[i] + 1] - value[g] <= r:
            n_right[i] += 1
    lo = bounds[small - n_left]
    hi = bounds[small + n_right + 1]

    # one row per point of a small group: its run in sorted positions
    row = np.repeat(np.arange(small.size), size[small])
    points = order[np.repeat(size <= k, size)]
    kdist[points] = kd[row]
    run_lo, run_len = lo[row], (hi - lo)[row]

    # members, point-major, each point's in ascending index, itself dropped
    seg = np.repeat(np.arange(points.size), run_len)
    run_start = np.cumsum(run_len) - run_len
    member = order[run_lo[seg] + np.arange(seg.size) - run_start[seg]]
    keep = member != points[seg]
    seg, member = seg[keep], member[keep]
    by_index = np.lexsort((member, seg))
    seg, member = seg[by_index], member[by_index]
    count = run_len - 1
    offsets = np.append(0, np.cumsum(count))

    center_x = x[points][seg]
    reach = np.maximum(kdist[member], np.abs(center_x - x[member]))
    lrd[points] = count / _ordered_sums(reach, offsets)
    member_mean = _ordered_sums(lrd[member], offsets) / count
    lof_arr[points] = member_mean / lrd[points]
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
    comes from one sort per row: the k nearest neighbors of a sorted
    position are a run of it, so the k-distance is the smallest, over the
    k+1 ways to split the run, of its farther end.  Two cases then close
    exactly: a point with k-distance 0 has more than k copies, so it and
    its neighbors have lrd +inf and it scores 1; a finite-density point
    with a neighbor of k-distance 0 has an infinitely dense neighbor and
    scores +inf.  The other rows get distance rows for the point and its
    m neighbors only, O(n*m) instead of O(n^2), and every sum adds its
    terms in ascending point index as ``_tables`` does.
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
    row = np.arange(n_rows)[:, None]

    # k-distances: padded[:, k:k + n] is each row sorted, with k infinities
    # on each side; ends[:, j, i] is padded[:, i + j], the left end of the
    # run that splits at j for sorted position i, and ends[:, j + k, i] its
    # right end
    padded = np.empty((n_rows, n + 2 * k))
    padded[:, :k] = -np.inf
    padded[:, k + n:] = np.inf
    # copies of a value share its k-distance, so any order of ties will do
    order = np.argsort(x, axis=1)
    xs = padded[:, k:k + n]
    xs[...] = x[row, order]
    ends = np.ndarray(
        (n_rows, 2 * k + 1, n), buffer=padded,
        strides=(padded.strides[0], padded.itemsize, padded.itemsize),
    )
    runs = np.maximum(xs[:, None, :] - ends[:, :k + 1], ends[:, k:] - xs[:, None, :])
    kdist = np.empty((n_rows, n))
    kdist[row, order] = np.minimum.reduce(runs, axis=1)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the scored point's own neighborhood and lrd (each count is >= k,
        # so a zero reachability sum divides to +inf)
        d = np.abs(x - x[:, pos, None])
        d[:, pos] = np.inf
        member = d <= kdist[:, pos, None]
        count = np.add.reduce(member, axis=1)
        lrd = count / np.add.accumulate(np.where(member, np.maximum(d, kdist), 0.0), axis=1)[:, -1]

        has_kdist = kdist[:, pos] > 0.0
        closed_inf = has_kdist & (member & (kdist == 0.0)).any(axis=1) & np.isfinite(lrd)
        scores = np.where(closed_inf, np.inf, 1.0)
        general = np.flatnonzero(has_kdist & ~closed_inf)
        if general.size == 0:
            return scores

        # each neighbor's lrd from its own distance row: neighbors in
        # ascending index, padding slots past the count masked out
        g_member, g_count = member[general], count[general]
        gx, g_kdist = x[general], kdist[general]
        width = int(np.maximum.reduce(g_count))
        nbr = np.argsort(~g_member, axis=1, kind="stable")[:, :width]
        g_row = row[:general.size]
        valid = np.arange(width) < g_count[:, None]
        nd = np.abs(gx[g_row, nbr][:, :, None] - gx[:, None, :])
        nd[g_row, np.arange(width), nbr] = np.inf
        nbr_member = nd <= g_kdist[g_row, nbr][:, :, None]
        nbr_reach = np.where(nbr_member, np.maximum(nd, g_kdist[:, None, :]), 0.0)
        nbr_reach_sum = np.add.accumulate(nbr_reach, axis=2)[:, :, -1]
        nbr_lrd = np.add.reduce(nbr_member, axis=2) / nbr_reach_sum

        g_lrd = lrd[general]
        member_mean = np.add.accumulate(np.where(valid, nbr_lrd, 0.0), axis=1)[:, -1] / g_count
        any_finite = (valid & np.isfinite(nbr_lrd)).any(axis=1)
        scores[general] = np.where(
            np.isfinite(g_lrd), member_mean / g_lrd, np.where(any_finite, _TINY, 1.0)
        )
    return scores


def lof_all(points: np.ndarray | Sequence[float], k: int) -> list[LofResult]:
    """One LofResult per point, index-aligned, bit-identical to ``lof_scores``."""
    lrd_arr, lof_arr = _sorted_kernel(_points(points, k), k)
    return [
        LofResult(index=i, lrd=d, lof=f)
        for i, (d, f) in enumerate(zip(lrd_arr.tolist(), lof_arr.tolist()))
    ]


def top_n_outliers(results: Sequence[LofResult], n: int) -> list[int]:
    """Indices of the n largest scores, descending; equal scores keep the
    earlier index first.  Returns fewer than n if fewer results exist."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranked = sorted(results, key=lambda r: (-r.lof, r.index))
    return [r.index for r in ranked[:n]]
