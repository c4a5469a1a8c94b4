"""Outlier-factor math against hand-derived values and the brute oracle."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

import oracle
from hpcwatch.lof import LofResult, lof_all, lof_at, lof_scores, top_n_outliers

FIXTURE = [0.0, 1.0, 2.0, 10.0]


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


def assert_lof_all_is_oracle(pts, k, reset):
    """lof_all's density and score of every point equal the oracle's bit
    for bit; ``reset`` is the exact_oracle fixture's."""
    reset()
    results = lof_all(pts, k)
    assert [r.lrd for r in results] == [oracle.lrd(pts, i, k) for i in range(len(pts))]
    assert [r.lof for r in results] == oracle.lof_all(pts, k)


def test_distance():
    # the metric is |a - b|: a two-point set's density is 1 / distance
    assert lof_all([3.0, 3.0], 1)[0].lrd == math.inf
    assert lof_all([0.0, 10.0], 1)[0].lrd == 1 / 10
    assert lof_all([1621, 5149], 1)[0].lrd == 1 / 3528
    assert lof_all([5149, 1621], 1)[0].lrd == 1 / 3528
    with pytest.raises(ValueError):
        lof_all([float("nan"), 1.0], 1)


def test_point_set_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        lof_all([1.0, float("inf")], 1)
    with pytest.raises(ValueError, match="non-finite"):
        lof_scores([1.0, float("inf")], 1)


def test_k_nearest_fixture(exact_oracle):
    assert oracle.kth_distance(FIXTURE, 3, 2) == 9
    assert set(oracle.neighbors(FIXTURE, 3, 2)) == {1, 2}
    assert_lof_all_is_oracle(FIXTURE, 2, exact_oracle)


def test_k_nearest_duplicates_tie(exact_oracle):
    assert oracle.kth_distance([0.0, 0.0, 0.0], 0, 2) == 0
    assert set(oracle.neighbors([0.0, 0.0, 0.0], 0, 2)) == {1, 2}
    assert_lof_all_is_oracle([0.0, 0.0, 0.0], 2, exact_oracle)


def test_k_nearest_even_spacing(exact_oracle):
    assert oracle.kth_distance([0.0, 1.0, 2.0, 3.0], 1, 2) == 1
    assert set(oracle.neighbors([0.0, 1.0, 2.0, 3.0], 1, 2)) == {0, 2}
    assert_lof_all_is_oracle([0.0, 1.0, 2.0, 3.0], 2, exact_oracle)


def test_k_nearest_ties_can_exceed_k(exact_oracle):
    # point 1 has points 0 and 2 both at distance 1; k=1 keeps both
    assert oracle.kth_distance([0.0, 1.0, 2.0], 1, 1) == 1
    assert set(oracle.neighbors([0.0, 1.0, 2.0], 1, 1)) == {0, 2}
    assert_lof_all_is_oracle([0.0, 1.0, 2.0], 1, exact_oracle)


def test_k_nearest_k_out_of_range():
    for k in (4, 0):
        with pytest.raises(ValueError):
            lof_all(FIXTURE, k)
        with pytest.raises(ValueError):
            lof_scores(FIXTURE, k)


def test_reachability_distance_fixture(exact_oracle):
    assert oracle.reach_dist(FIXTURE, 0, 1, 2) == 1
    assert oracle.reach_dist(FIXTURE, 3, 1, 2) == 9
    # far outside the neighborhood the true distance dominates
    assert oracle.reach_dist(FIXTURE, 3, 0, 2) == 10
    with pytest.raises(ValueError):
        oracle.reach_dist(FIXTURE, 2, 2, 2)
    assert_lof_all_is_oracle(FIXTURE, 2, exact_oracle)


def test_lrd_fixture():
    results = lof_all(FIXTURE, 2)
    assert results[0].lrd == pytest.approx(2 / 3, rel=1e-12)
    assert results[3].lrd == pytest.approx(2 / 17, rel=1e-12)
    assert lof_all([5.0, 5.0, 5.0, 5.0], 2)[1].lrd == math.inf


def test_lof_fixture():
    scores = lof_scores(FIXTURE, 2)
    assert scores[3] == pytest.approx(4.9583333333, abs=1e-6)
    assert scores[1] == pytest.approx(1.3333333333, abs=1e-6)


def test_lof_duplicate_convention():
    assert lof_scores([5.0, 5.0, 5.0, 5.0], 2)[2] == 1.0
    results = lof_all([7.0] * 9, 4)
    assert all(r.lof == 1.0 for r in results)
    assert all(r.lrd == math.inf for r in results)


def test_lof_all_matches_pointwise_exactly(exact_oracle):
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.lognormal(3, 1, 30).tolist()
        k = int(rng.integers(2, 9))
        batch = lof_all(pts, k)
        assert [r.index for r in batch] == list(range(len(pts)))
        assert [r.lof for r in batch] == lof_scores(pts, k).tolist()
        assert_lof_all_is_oracle(pts, k, exact_oracle)


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


def test_reachability_lower_bound(exact_oracle):
    rng = np.random.default_rng(13)
    pts = rng.normal(0, 1, 12).tolist()
    kdists = {i: oracle.kth_distance(pts, i, 3) for i in range(len(pts))}
    for a in range(len(pts)):
        for b in range(len(pts)):
            if a == b:
                continue
            rd = oracle.reach_dist(pts, a, b, 3)
            assert rd >= kdists[b]
            assert rd >= 0
    assert_lof_all_is_oracle(pts, 3, exact_oracle)


# ---------------------------------------------------------------------------
# Whole-series kernel: bit-identity with the oracle, scale
# ---------------------------------------------------------------------------

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
    assert_lof_all_is_oracle(pts, k, exact_oracle)
    assert set(oracle.neighbors(pts, 0, k)) == members


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


# ---------------------------------------------------------------------------
# Stacked window kernel: one point per window, bit-identical to lof_scores
# ---------------------------------------------------------------------------

WINDOW_SHAPES = {
    "lognormal": lambda rng, n: rng.lognormal(5.0, 0.7, n),
    "integer ties near 18": lambda rng, n: np.rint(rng.lognormal(math.log(18), 0.03, n)),
    "integers near 61k": lambda rng, n: np.rint(rng.lognormal(math.log(61452), 0.03, n)),
    "rounding ties": lambda rng, n: rng.choice([0.1, 0.2, 0.3, 0.7], n),
    "rounding ties at 1e16": lambda rng, n: rng.choice([1e16, 1e16 + 2, 0.0, 0.25, 1.0], n),
    "all duplicates": lambda rng, n: np.full(n, 42.0),
}


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_lof_at_equals_lof_scores_and_oracle_bit_for_bit(k, exact_oracle):
    # every window length the detector scores up to 50, plus the full
    # windows of window=20 and window=120; each batch mixes every shape, so
    # closed-form and general rows share one call
    rng = np.random.default_rng(1000 + k)
    lagged = k // 2 + 1
    for n in [*range(k + 1, 51), 120]:
        batch = np.stack([draw(rng, n) for draw in WINDOW_SHAPES.values() for _ in range(3)])
        expected = [lof_scores(row, k) for row in batch]
        for pos in {n - 1 - lagged, 0, n - 1}:
            got = lof_at(batch, k, pos).tolist()
            assert got == [float(e[pos]) for e in expected], (k, n, pos)
        pos = n - 1 - lagged
        for row in batch[::3]:
            exact_oracle()
            assert lof_at(row[None, :], k, pos)[0] == oracle.lof(row.tolist(), pos, k), (k, n)


def test_lof_at_general_row_with_many_neighbors(exact_oracle):
    # one row reaches the general branch with ten neighbors, ties at its
    # k-distance included, each of a different density; the other rows
    # close in form (a score of 1, and +inf for a dense neighbor).  The
    # ten neighbor densities must be added one at a time: a pairwise sum
    # over eight or more terms rounds differently
    k = 8
    near = [-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0, 1.0, -1.0]
    rng = np.random.default_rng(8)
    general = np.array([0.0, *near, *rng.uniform(3.0, 60.0, 19)])
    duplicates = np.full(30, 5.0)
    dense_neighbor = np.array([0.0, *([1.0] * 12), *rng.uniform(3.0, 60.0, 17)])
    batch = np.stack([duplicates, general, dense_neighbor])

    pts = general.tolist()
    assert len(oracle.neighbors(pts, 0, k)) == 10
    assert all(oracle.kth_distance(pts, j, k) > 0 for j in oracle.neighbors(pts, 0, k))
    exact_oracle()
    expected = [1.0, oracle.lof(pts, 0, k), math.inf]
    assert lof_at(batch, k, 0).tolist() == expected
    assert [float(lof_scores(row, k)[0]) for row in batch] == expected


def test_lof_at_overflowing_density_is_not_a_closed_form():
    # at subnormal distances the point's own lrd overflows to +inf, so a
    # dense neighbor does not make its score +inf: it scores 1
    tiny = np.array([[0.0, 5e-324, 5e-324, 5e-324, 1.0]])
    assert lof_at(tiny, 2, 0).tolist() == [1.0]
    with np.errstate(over="ignore"):
        assert lof_scores(tiny[0], 2)[0] == 1.0


def test_lof_at_rejects_bad_input():
    with pytest.raises(ValueError):
        lof_at(np.ones(10), 3, 0)  # one window, not a stack
    with pytest.raises(ValueError):
        lof_at(np.ones((2, 3)), 3, 0)  # fewer than k + 1 points
    with pytest.raises(IndexError):
        lof_at(np.ones((2, 10)), 3, 10)
    with pytest.raises(ValueError):
        lof_at(np.array([[1.0, 2.0, np.nan, 4.0, 5.0]]), 2, 0)
