"""Brute-force reference implementation of the outlier-factor math.

Deliberately naive: plain floats, quadratic scans, no shared code with the
package under test.  Tests compare the fast implementation against this one
on randomized inputs.
"""

from __future__ import annotations

import math


def kth_distance(points: list[float], i: int, k: int) -> float:
    dists = sorted(abs(points[i] - p) for j, p in enumerate(points) if j != i)
    return dists[k - 1]


def neighbors(points: list[float], i: int, k: int) -> list[int]:
    """Indices within the k-distance of point i, ties included, i excluded."""
    kd = kth_distance(points, i, k)
    return [j for j in range(len(points)) if j != i and abs(points[i] - points[j]) <= kd]


def reach_dist(points: list[float], i: int, j: int, k: int) -> float:
    if i == j:
        raise ValueError("reachability distance is undefined for a point and itself")
    return max(kth_distance(points, j, k), abs(points[i] - points[j]))


def lrd(points: list[float], i: int, k: int) -> float:
    nbrs = neighbors(points, i, k)
    total = sum(reach_dist(points, i, j, k) for j in nbrs)
    if total == 0.0:
        return math.inf
    return len(nbrs) / total


def lof(points: list[float], i: int, k: int) -> float:
    nbrs = neighbors(points, i, k)
    own = lrd(points, i, k)
    ratios = [lrd(points, j, k) for j in nbrs]
    if math.isinf(own):
        if all(math.isinf(r) for r in ratios):
            return 1.0
        # Finite neighbor density with infinitely dense center: smallest
        # representable positive score.  Unreachable for real point sets.
        return math.nextafter(0.0, 1.0)
    mean_nbr = sum(ratios) / len(ratios)
    return mean_nbr / own


def lof_all(points: list[float], k: int) -> list[float]:
    return [lof(points, i, k) for i in range(len(points))]


if __name__ == "__main__":
    pts = [0.0, 1.0, 2.0, 10.0]
    for i, p in enumerate(pts):
        print(f"lof({p:g}) = {lof(pts, i, 2)!r}")
