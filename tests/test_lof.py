"""Outlier-factor math against hand-derived values and the brute oracle."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

import oracle
from hpcwatch.lof import (
    LofResult,
    PointSet,
    distance,
    k_nearest,
    lof,
    lof_all,
    lof_scores,
    lrd,
    reachability_distance,
    top_n_outliers,
)

FIXTURE = [0.0, 1.0, 2.0, 10.0]


def test_distance():
    assert distance(3, 3) == 0
    assert distance(0, 10) == 10
    assert distance(1621, 5149) == 3528
    assert distance(5149, 1621) == 3528
    with pytest.raises(ValueError):
        distance(float("nan"), 1.0)


def test_point_set_rejects_non_finite():
    with pytest.raises(ValueError):
        PointSet([1.0, float("inf")])


def test_k_nearest_fixture():
    nb = k_nearest(FIXTURE, 3, 2)
    assert nb.k_distance == 9
    assert nb.members == {1, 2}


def test_k_nearest_duplicates_tie():
    nb = k_nearest([0.0, 0.0, 0.0], 0, 2)
    assert nb.k_distance == 0
    assert nb.members == {1, 2}


def test_k_nearest_even_spacing():
    nb = k_nearest([0.0, 1.0, 2.0, 3.0], 1, 2)
    assert nb.k_distance == 1
    assert nb.members == {0, 2}


def test_k_nearest_ties_can_exceed_k():
    # point 1 has points 0 and 2 both at distance 1; k=1 keeps both
    nb = k_nearest([0.0, 1.0, 2.0], 1, 1)
    assert nb.k_distance == 1
    assert nb.members == {0, 2}


def test_k_nearest_k_out_of_range():
    with pytest.raises(ValueError):
        k_nearest(FIXTURE, 0, 4)
    with pytest.raises(ValueError):
        k_nearest(FIXTURE, 0, 0)


def test_reachability_distance_fixture():
    assert reachability_distance(FIXTURE, 0, 1, 2) == 1
    assert reachability_distance(FIXTURE, 3, 1, 2) == 9
    # far outside the neighborhood the true distance dominates
    assert reachability_distance(FIXTURE, 3, 0, 2) == 10
    with pytest.raises(ValueError):
        reachability_distance(FIXTURE, 2, 2, 2)


def test_lrd_fixture():
    assert lrd(FIXTURE, 0, 2) == pytest.approx(2 / 3, rel=1e-12)
    assert lrd(FIXTURE, 3, 2) == pytest.approx(2 / 17, rel=1e-12)
    assert lrd([5.0, 5.0, 5.0, 5.0], 1, 2) == math.inf


def test_lof_fixture():
    assert lof(FIXTURE, 3, 2) == pytest.approx(4.9583333333, abs=1e-6)
    assert lof(FIXTURE, 1, 2) == pytest.approx(1.3333333333, abs=1e-6)


def test_lof_duplicate_convention():
    assert lof([5.0, 5.0, 5.0, 5.0], 2, 2) == 1.0
    results = lof_all([7.0] * 9, 4)
    assert all(r.lof == 1.0 for r in results)
    assert all(r.lrd == math.inf for r in results)


def test_lof_all_matches_pointwise_exactly():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.lognormal(3, 1, 30).tolist()
        k = int(rng.integers(2, 9))
        batch = lof_all(pts, k)
        for i, r in enumerate(batch):
            assert r.index == i
            assert r.lof == lof(pts, i, k)
            assert r.lrd == lrd(pts, i, k)


def test_lof_all_too_few_points():
    with pytest.raises(ValueError):
        lof_all([1.0, 2.0], 2)


def test_lof_scores_matches_lof_all():
    pts = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    scores = lof_scores(np.array(pts), 3)
    assert [float(s) for s in scores] == [r.lof for r in lof_all(pts, 3)]


def test_top_n_outliers():
    mk = lambda scores: [LofResult(i, 1.0, s) for i, s in enumerate(scores)]
    assert top_n_outliers(mk([1.0, 1.3, 1.0, 4.9]), 1) == [3]
    assert top_n_outliers(mk([2.0, 2.0, 1.0]), 2) == [0, 1]
    assert top_n_outliers(mk([1.0, 2.0]), 5) == [1, 0]
    assert top_n_outliers(lof_all(FIXTURE, 2), 1) == [3]
    with pytest.raises(ValueError):
        top_n_outliers(mk([1.0]), 0)


def test_top_n_tie_rule_is_permutation_stable():
    results = [LofResult(i, 1.0, s) for i, s in enumerate([2.0, 3.0, 2.0, 3.0, 1.0])]
    assert top_n_outliers(results, 4) == [1, 3, 0, 2]
    assert top_n_outliers(list(reversed(results)), 4) == [1, 3, 0, 2]


def _assert_close(a: float, b: float, rel: float) -> None:
    if math.isinf(a) or math.isinf(b):
        assert a == b
    else:
        assert abs(a - b) <= rel * max(1e-300, abs(b)), (a, b)


def test_oracle_equivalence_random_sets():
    rng = np.random.default_rng(20240817)
    for case in range(60):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(k + 1, 65))
        kind = case % 3
        if kind == 0:
            pts = rng.normal(0, 50, n)
        elif kind == 1:
            pts = rng.lognormal(4, 1, n)
        else:
            pts = rng.integers(0, 12, n).astype(float)  # duplicate-heavy
        mine = lof_all(pts.tolist(), k)
        ref = oracle.lof_all(pts.tolist(), k)
        for r, expected in zip(mine, ref):
            _assert_close(r.lof, expected, 1e-9)


def test_affine_invariance_floats():
    # Gaps of at least 1e4 between points keep every pairwise distance far
    # above the float ulp at each tested scale and shift, so the mapped
    # scores track the originals to full tolerance.  Tightly clustered
    # points would not: mapping x -> 1e-3*x + 1e6 squeezes sub-unit gaps
    # below the representable spacing at 1e6 and the input itself loses
    # the geometry before any score is computed.
    rng = np.random.default_rng(99)
    base = (np.cumsum(rng.uniform(1e4, 1e5, 40)) + 5e5).tolist()
    reference = [r.lof for r in lof_all(base, 5)]
    for c in (1e-3, 1.0, 1e3):
        for b in (0.0, 1e6):
            mapped = [c * x + b for x in base]
            got = [r.lof for r in lof_all(mapped, 5)]
            for g, e in zip(got, reference):
                _assert_close(g, e, 1e-9)


def test_affine_invariance_integer_exact_cases():
    # integer scale/shift keep every distance exact, ties included
    pts = [3.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 12.0, 30.0, 31.0]
    base = [r.lof for r in lof_all(pts, 3)]
    for c, b in ((1e3, 0.0), (1.0, 1e6), (1e3, 1e6)):
        mapped = [c * x + b for x in pts]
        assert [r.lof for r in lof_all(mapped, 3)] == base


def test_reflection_invariance():
    rng = np.random.default_rng(7)
    pts = rng.normal(10, 3, 25).tolist()
    assert [r.lof for r in lof_all([-x for x in pts], 4)] == [
        r.lof for r in lof_all(pts, 4)
    ]


def test_all_scores_positive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.integers(0, 6, 20).astype(float).tolist()
        for r in lof_all(pts, 5):
            assert r.lof > 0
            assert r.lrd > 0


def test_reachability_lower_bound():
    rng = np.random.default_rng(13)
    pts = rng.normal(0, 1, 12).tolist()
    kdists = {i: k_nearest(pts, i, 3).k_distance for i in range(len(pts))}
    for a in range(len(pts)):
        for b in range(len(pts)):
            if a == b:
                continue
            rd = reachability_distance(pts, a, b, 3)
            assert rd >= kdists[b]
            assert rd >= 0


# ---------------------------------------------------------------------------
# Whole-series kernel: bit-identity with the oracle, scale
# ---------------------------------------------------------------------------

def _sum_left_to_right(terms):
    total = 0
    for term in terms:
        total += term
    return total


@pytest.fixture
def exact_oracle(monkeypatch):
    """The oracle with its sums pinned to left-to-right order and
    kth_distance memoised per point set.

    Python 3.12's built-in sum() compensates rounding, so the oracle's own
    order would depend on the interpreter; here it adds one term at a time
    on every version.  kth_distance is pure, so the cache changes no value;
    it turns the oracle's rescans into something a 300-point set can
    afford.  Call the returned ``reset()`` before each new set.
    """
    memo: dict[tuple[int, int], float] = {}
    raw = oracle.kth_distance

    def kth_distance(points, i, k):
        if (i, k) not in memo:
            memo[(i, k)] = raw(points, i, k)
        return memo[(i, k)]

    monkeypatch.setattr(oracle, "sum", _sum_left_to_right, raising=False)
    monkeypatch.setattr(oracle, "kth_distance", kth_distance)
    return memo.clear


def test_lof_all_equals_oracle_bit_for_bit(exact_oracle):
    rng = np.random.default_rng(20261018)
    shapes = {
        "normal": lambda n: rng.normal(0.0, 50.0, n),
        "lognormal": lambda n: rng.lognormal(4.0, 1.0, n),
        "integer ties": lambda n: rng.integers(0, int(rng.integers(2, 15)), n).astype(float),
        "all duplicates": lambda n: np.full(n, 42.0),
        "far outlier": lambda n: np.append(rng.normal(0.0, 1.0, n - 1), 500.0),
    }
    for name, draw in shapes.items():
        for n_max in (20, 65, 300):
            k = int(rng.integers(1, 9))
            pts = draw(int(rng.integers(k + 1, n_max + 1))).tolist()
            exact_oracle()
            expected = oracle.lof_all(pts, k)
            assert [r.lof for r in lof_all(pts, k)] == expected, (name, len(pts), k)


@pytest.mark.parametrize(
    "pts, k, members",
    [
        ([-1e16, 0.25, 0.5, 0.75, 1.0, 2.0], 2, {1, 2, 3, 4}),
        ([1e16, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5], 3, {1, 2, 3, 4, 5, 6}),
    ],
)
def test_lof_all_rounding_ties(pts, k, members, exact_oracle):
    # seen from +-1e16, several small values round to one distance, so the
    # first point's neighborhood runs past its k+1 nearest distinct values
    batch = lof_all(pts, k)
    assert [r.lof for r in batch] == oracle.lof_all(pts, k)
    assert [r.lrd for r in batch] == [lrd(pts, i, k) for i in range(len(pts))]
    assert k_nearest(pts, 0, k).members == members


def test_lof_all_ranks_an_hour_of_jitter_quickly_in_bounded_memory():
    # 36 000 points is a 3600 s trace at 100 ms; the levels are a small
    # counter (mostly copies) and a large one (mostly distinct values)
    rng = np.random.default_rng(3600)
    for level in (18, 61452):
        values = np.rint(rng.lognormal(math.log(level), 0.03, 36_000)).tolist()
        tracemalloc.start()
        try:
            started = time.perf_counter()
            results = lof_all(values, 5)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 36_000
        assert elapsed < 2.0, (level, elapsed)
        assert peak < 64 * 2**20, (level, peak)
