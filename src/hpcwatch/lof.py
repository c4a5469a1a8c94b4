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

Two kernels compute the same numbers:

* ``_tables`` builds n x n distance and membership tables: O(n^2) time and
  memory, and the fewest numpy calls.  It serves the hot 50-point windows
  (``lof_scores``) and the pointwise API (``k_nearest``, ``lrd``, ``lof``,
  ``reachability_distance``).
* ``_sorted_kernel`` sorts once and walks runs of the sorted values:
  O(n log n + n*k) time and O(n*k) memory.  It serves ``lof_all``, which
  ranks whole series (36 000 points for an hour at 100 ms).

Both add every neighborhood sum's terms one at a time in ascending point
index, the order the brute-force definition uses, so the two kernels agree
bit for bit with each other and with that definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_TINY = math.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class PointSet:
    """An ordered set of finite values; the index is the point identity."""

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]) -> None:
        vals = tuple(float(v) for v in values)
        for v in vals:
            if not math.isfinite(v):
                raise ValueError(f"non-finite point value {v!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class Neighborhood:
    center: int
    k: int
    k_distance: float
    members: frozenset[int]


@dataclass(frozen=True)
class LofResult:
    index: int
    lrd: float
    lof: float


def _as_points(points: PointSet | Sequence[float]) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


def distance(a: float, b: float) -> float:
    """Absolute difference; the metric for 1-D sets."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("distance requires finite values")
    return abs(a - b)


# ---------------------------------------------------------------------------
# Shared tables
# ---------------------------------------------------------------------------

def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1} for {n} points, got {k}")


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
# Pointwise operations (delegating to the shared tables)
# ---------------------------------------------------------------------------

def k_nearest(points: PointSet | Sequence[float], i: int, k: int) -> Neighborhood:
    """Neighborhood of point i: the k-th smallest distance and every point
    within it, ties included."""
    ps = _as_points(points)
    x = ps.as_array()
    if not 0 <= i < len(ps):
        raise IndexError(f"point index {i} out of range")
    kdist, mask, _, _ = _tables(x, k)
    return Neighborhood(
        center=i,
        k=k,
        k_distance=float(kdist[i]),
        members=frozenset(int(j) for j in np.nonzero(mask[i])[0]),
    )


def reachability_distance(points: PointSet | Sequence[float], a: int, b: int, k: int) -> float:
    """max(k_distance(b), distance(a, b)): how far b is from a, floored by
    b's own neighborhood radius."""
    if a == b:
        raise ValueError("reachability distance is undefined for a point and itself")
    ps = _as_points(points)
    x = ps.as_array()
    for idx in (a, b):
        if not 0 <= idx < len(ps):
            raise IndexError(f"point index {idx} out of range")
    kdist, _, _, _ = _tables(x, k)
    return float(max(kdist[b], abs(x[a] - x[b])))


def lrd(points: PointSet | Sequence[float], i: int, k: int) -> float:
    """Local reachability density: inverse mean reachability distance to the
    neighborhood, +inf when all neighbors are duplicates of the point."""
    ps = _as_points(points)
    _, _, lrd_arr, _ = _tables(ps.as_array(), k)
    return float(lrd_arr[i])


def lof(points: PointSet | Sequence[float], i: int, k: int) -> float:
    ps = _as_points(points)
    _, _, _, lof_arr = _tables(ps.as_array(), k)
    return float(lof_arr[i])


# ---------------------------------------------------------------------------
# Batch operations
# ---------------------------------------------------------------------------

def lof_scores(values: np.ndarray | Sequence[float], k: int) -> np.ndarray:
    """Score array for every point; the allocation-free path for hot loops."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("lof_scores expects a 1-D array")
    if not np.isfinite(x).all():
        raise ValueError("non-finite point value")
    if x.shape[0] < k + 1:
        raise ValueError(f"need at least {k + 1} points for k={k}, got {x.shape[0]}")
    _, _, _, lof_arr = _tables(x, k)
    return lof_arr


def lof_all(points: PointSet | Sequence[float], k: int) -> list[LofResult]:
    """One LofResult per point, index-aligned, identical to pointwise lof."""
    ps = _as_points(points)
    if len(ps) < k + 1:
        raise ValueError(f"need at least {k + 1} points for k={k}, got {len(ps)}")
    lrd_arr, lof_arr = _sorted_kernel(ps.as_array(), k)
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
