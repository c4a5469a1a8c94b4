"""Outlier-factor math against hand-derived values and the brute oracle."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hpcwatch import lof as lof_module
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
    kth_distance and lrd memoised per point set.

    Python 3.12's built-in sum() compensates rounding, so the oracle's own
    order would depend on the interpreter; here it adds one term at a time
    on every version.  Both functions are pure, so the caches change no
    value; they turn the oracle's rescans into something a 300-point set
    with wide tie groups can afford.  Call the returned ``reset()`` before
    each new set.
    """
    memo: dict[tuple[str, int, int], float] = {}

    def memoised(raw):
        def cached(points, i, k):
            key = (raw.__name__, i, k)
            if key not in memo:
                memo[key] = raw(points, i, k)
            return memo[key]
        return cached

    monkeypatch.setattr(oracle, "sum", _sum_left_to_right, raising=False)
    monkeypatch.setattr(oracle, "kth_distance", memoised(oracle.kth_distance))
    monkeypatch.setattr(oracle, "lrd", memoised(oracle.lrd))
    return memo.clear


def assert_lof_all_is_oracle(pts, k, reset):
    """lof_all's density and score of every point equal the oracle's bit
    for bit; ``reset`` is the exact_oracle fixture's."""
    reset()
    lrd, lof = lof_all(pts, k)
    assert lrd.tolist() == [oracle.lrd(pts, i, k) for i in range(len(pts))]
    assert lof.tolist() == oracle.lof_all(pts, k)


def test_distance():
    # the metric is |a - b|: a two-point set's density is 1 / distance
    # (lof_all(...)[0] is the lrd array)
    assert lof_all([3.0, 3.0], 1)[0][0] == math.inf
    assert lof_all([0.0, 10.0], 1)[0][0] == 1 / 10
    assert lof_all([1621, 5149], 1)[0][0] == 1 / 3528
    assert lof_all([5149, 1621], 1)[0][0] == 1 / 3528
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
    lrd, _ = lof_all(FIXTURE, 2)
    assert lrd[0] == pytest.approx(2 / 3, rel=1e-12)
    assert lrd[3] == pytest.approx(2 / 17, rel=1e-12)
    assert lof_all([5.0, 5.0, 5.0, 5.0], 2)[0][1] == math.inf


def test_lof_fixture():
    scores = lof_scores(FIXTURE, 2)
    assert scores[3] == pytest.approx(4.9583333333, abs=1e-6)
    assert scores[1] == pytest.approx(1.3333333333, abs=1e-6)


def test_lof_duplicate_convention():
    assert lof_scores([5.0, 5.0, 5.0, 5.0], 2)[2] == 1.0
    lrd, lof = lof_all([7.0] * 9, 4)
    assert all(score == 1.0 for score in lof.tolist())
    assert all(density == math.inf for density in lrd.tolist())


def test_lof_all_matches_pointwise_exactly(exact_oracle):
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.lognormal(3, 1, 30).tolist()
        k = int(rng.integers(2, 9))
        lrd, lof = lof_all(pts, k)
        assert lrd.shape == lof.shape == (len(pts),)  # index-aligned
        assert lof.tolist() == lof_scores(pts, k).tolist()
        assert_lof_all_is_oracle(pts, k, exact_oracle)


def test_lof_all_too_few_points():
    with pytest.raises(ValueError):
        lof_all([1.0, 2.0], 2)


def test_lof_scores_matches_lof_all():
    pts = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    scores = lof_scores(np.array(pts), 3)
    assert [float(s) for s in scores] == lof_all(pts, 3)[1].tolist()


def _ranked(lof, n):
    """Indices ``top_n_outliers`` ranks for these scores (lrd all 1.0)."""
    return [r.index for r in top_n_outliers(np.ones(len(lof)), np.array(lof), n)]


def test_top_n_outliers():
    assert _ranked([1.0, 1.3, 1.0, 4.9], 1) == [3]
    assert _ranked([2.0, 2.0, 1.0], 2) == [0, 1]
    assert _ranked([1.0, 2.0], 5) == [1, 0]
    assert [r.index for r in top_n_outliers(*lof_all(FIXTURE, 2), 1)] == [3]
    with pytest.raises(ValueError):
        _ranked([1.0], 0)


def test_top_n_outliers_builds_results_for_the_top_only():
    lrd, lof = lof_all(FIXTURE, 2)
    top = top_n_outliers(lrd, lof, 2)
    assert top == [LofResult(i, lrd[i], lof[i]) for i in (3, 1)]
    assert all(type(r.index) is int and type(r.lrd) is float and type(r.lof) is float
               for r in top)


def test_top_n_tie_rule_keeps_the_earlier_index_first():
    assert _ranked([2.0, 3.0, 2.0, 3.0, 1.0], 4) == [1, 3, 0, 2]
    assert _ranked([1.0, 3.0, 2.0, 3.0, 2.0], 4) == [1, 3, 2, 4]
    assert _ranked([math.inf, 1.0, math.inf, 5.0], 3) == [0, 2, 3]
    assert _ranked([1.0] * 6, 3) == [0, 1, 2]


@given(
    st.lists(
        st.one_of(st.sampled_from([1.0, 1.0, 2.0, math.inf]),
                  st.floats(min_value=1e-300, max_value=1e6)),
        min_size=1, max_size=80,
    ),
    st.integers(1, 90),
)
@settings(max_examples=300, deadline=None)
def test_top_n_outliers_ranks_by_score_then_index(lof, n):
    lrd = np.arange(len(lof), dtype=np.float64)
    want = sorted(range(len(lof)), key=lambda i: (-lof[i], i))[:n]
    top = top_n_outliers(lrd, np.array(lof), n)
    assert [r.index for r in top] == want
    assert [(r.lrd, r.lof) for r in top] == [(float(i), lof[i]) for i in want]


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
        mine = lof_all(pts.tolist(), k)[1].tolist()
        ref = oracle.lof_all(pts.tolist(), k)
        for r, expected in zip(mine, ref):
            _assert_close(r, expected, 1e-9)


def test_affine_invariance_floats():
    # Gaps of at least 1e4 between points keep every pairwise distance far
    # above the float ulp at each tested scale and shift, so the mapped
    # scores track the originals to full tolerance.  Tightly clustered
    # points would not: mapping x -> 1e-3*x + 1e6 squeezes sub-unit gaps
    # below the representable spacing at 1e6 and the input itself loses
    # the geometry before any score is computed.
    rng = np.random.default_rng(99)
    base = (np.cumsum(rng.uniform(1e4, 1e5, 40)) + 5e5).tolist()
    reference = lof_all(base, 5)[1].tolist()
    for c in (1e-3, 1.0, 1e3):
        for b in (0.0, 1e6):
            mapped = [c * x + b for x in base]
            got = lof_all(mapped, 5)[1].tolist()
            for g, e in zip(got, reference):
                _assert_close(g, e, 1e-9)


def test_affine_invariance_integer_exact_cases():
    # integer scale/shift keep every distance exact, ties included
    pts = [3.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 12.0, 30.0, 31.0]
    base = lof_all(pts, 3)[1].tolist()
    for c, b in ((1e3, 0.0), (1.0, 1e6), (1e3, 1e6)):
        mapped = [c * x + b for x in pts]
        assert lof_all(mapped, 3)[1].tolist() == base


def test_reflection_invariance():
    rng = np.random.default_rng(7)
    pts = rng.normal(10, 3, 25).tolist()
    assert lof_all([-x for x in pts], 4)[1].tolist() == lof_all(pts, 4)[1].tolist()


def test_all_scores_positive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.integers(0, 6, 20).astype(float).tolist()
        lrd, lof = lof_all(pts, 5)
        for density, score in zip(lrd.tolist(), lof.tolist()):
            assert score > 0
            assert density > 0


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
        "normal": lambda rng, n: rng.normal(0.0, 50.0, n),
        "lognormal": lambda rng, n: rng.lognormal(4.0, 1.0, n),
        "integer ties": lambda rng, n: rng.integers(0, int(rng.integers(2, 15)), n).astype(float),
        "all duplicates": lambda rng, n: np.full(n, 42.0),
        "far outlier": lambda rng, n: np.append(rng.normal(0.0, 1.0, n - 1), 500.0),
        **{name: WINDOW_SHAPES[name]
           for name in ("rounding ties", "rounding ties at 1e16", "integer ties near 18")},
    }
    for name, draw in shapes.items():
        for n_max in (20, 65, 300):
            k = int(rng.integers(1, 9))
            pts = draw(rng, int(rng.integers(k + 1, n_max + 1))).tolist()
            exact_oracle()
            expected = oracle.lof_all(pts, k)
            assert lof_all(pts, k)[1].tolist() == expected, (name, len(pts), k)

    # with k = n - 1 every run is the whole sorted order: the two end
    # points' runs reach more than half of it away, the others' both ends
    pts = rng.permutation([0.0, *[2.0] * 40, 3.0]).tolist()
    assert_lof_all_is_oracle(pts, len(pts) - 1, exact_oracle)


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


def test_lof_all_sums_a_long_tie_run_in_order():
    # points beside a 1 000-copy tie group hold it all in their
    # neighborhoods, a table column of over a thousand slots; the points
    # farther out have short runs, some holding those points' densities
    rng = np.random.default_rng(1000)
    pts = np.concatenate([
        np.full(1000, 100.0),
        rng.uniform(90.0, 110.0, 40),
        np.rint(rng.lognormal(math.log(30), 0.5, 460)),
    ])
    pts = rng.permutation(pts).tolist()
    for k in (3, 5):
        assert lof_all(pts, k)[1].tolist() == lof_scores(pts, k).tolist()


def test_lof_all_ranks_an_hour_of_jitter_quickly_in_bounded_memory():
    # 36 000 points is a 3600 s trace at 100 ms; the levels are a small
    # counter (mostly copies) and a large one (mostly distinct values)
    rng = np.random.default_rng(3600)
    for level in (18, 61452):
        values = np.rint(rng.lognormal(math.log(level), 0.03, 36_000)).tolist()
        tracemalloc.start()
        try:
            started = time.perf_counter()
            lrd, lof = lof_all(values, 5)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lrd) == len(lof) == 36_000
        assert elapsed < 2.0, (level, elapsed)
        assert peak < 64 * 2**20, (level, peak)


def test_lof_all_result_of_an_hour_holds_two_arrays():
    # the result lives as long as its caller ranks it: two float arrays,
    # not one object per point
    rng = np.random.default_rng(3601)
    for level in (18, 61452):
        values = np.rint(rng.lognormal(math.log(level), 0.03, 36_000))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = lof_all(values, 5)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result[1]) == 36_000
        assert retained < 2**20, (level, retained)


def test_lof_all_of_an_hour_of_distinct_values_peaks_below_8_mib():
    # a counter near 10**8 with 3 % jitter: 36 000 distinct values, k
    # neighborhood members each.  Laid out all at once, the members took a
    # 37.5 MiB peak; a block at a time, the O(n) arrays set it
    rng = np.random.default_rng(36_000)
    values = rng.lognormal(math.log(1e8), 0.03, 36_000)
    assert len(set(values.tolist())) == 36_000
    tracemalloc.start()
    try:
        lof_all(values, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_lof_all_blocks_change_no_bit_where_a_run_outgrows_the_block(monkeypatch):
    # blocks take the points in ascending run length, as many as fit in
    # BLOCK table cells (points times longest run).  The points beside a
    # big tie group hold all of it in their neighborhoods, so one point's
    # run is longer than a whole block; it gets a block of its own.  Tie
    # groups of 1 to 40 copies among distinct values mix many run lengths
    # in one set.  Both sets are small enough for lof_scores' n x n tables
    rng = np.random.default_rng(5000)
    default_block = lof_module.BLOCK

    def beside_copies(copies: int) -> np.ndarray:
        return rng.permutation(np.concatenate([
            np.full(copies, 100.0),
            rng.uniform(90.0, 110.0, 40),
            np.rint(rng.lognormal(math.log(100), 0.2, 400)),
        ]))

    def mixed_runs() -> np.ndarray:
        copies = rng.integers(1, 41, 30)
        return rng.permutation(np.concatenate([
            np.repeat(np.rint(rng.uniform(0.0, 1000.0, copies.size)), copies),
            rng.uniform(0.0, 1000.0, 200),
        ]))

    for pts in (beside_copies(600), mixed_runs()):
        for k in (3, 5):
            expected = lof_scores(pts, k).tolist()
            for block in (1, k + 1, 37, 256, default_block):
                monkeypatch.setattr(lof_module, "BLOCK", block)
                assert lof_all(pts, k)[1].tolist() == expected, (k, block)
    # 5 000 copies outgrow the default block, where lof_scores would need
    # about 0.8 GB; one block over the whole set is the reference: no run
    # is longer than the set, so n * n cells hold every point at once
    monkeypatch.undo()
    pts = beside_copies(5000)
    blocked = lof_all(pts, 5)
    monkeypatch.setattr(lof_module, "BLOCK", pts.shape[0] ** 2)
    whole = lof_all(pts, 5)
    assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]


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


# the six default counters' levels, in the order `detect` reads each tick's
# lines
DETECT_LEVELS = [261, 1123, 47, 23917, 61452, 18]


def detect_stack(rng, k: int, wide_row: int) -> np.ndarray:
    """64 windows of 50 as ``detect`` stacks them: the six default levels
    with 3% jitter, tick-major.  Row ``wide_row`` instead holds a point,
    at the lagged position, whose 3k neighbors all tie at its k-distance:
    copies of four values whose distances from it round to 1e16.  The two
    values below it hold only k copies between them, so their k-distances
    reach out to farther values, and their densities vary."""
    n, lagged = 50, k // 2 + 1
    cols = [np.rint(rng.lognormal(math.log(level), 0.03, n + 10)) for level in DETECT_LEVELS]
    stack = np.stack([col[t:t + n] for t in range(11) for col in cols][:64])
    below = rng.integers(1, k)
    tied = np.repeat([-1e16, -1e16 + 2, 1e16, 1e16 + 2], [below, k - below, k, k])
    farther = np.concatenate([-1e16 - np.cumsum(rng.integers(2, 9, 5) * 2.0),
                              3e16 + 4.0 * np.arange(n - 6 - tied.size)])
    wide = rng.permutation(np.concatenate([tied, farther]))
    stack[wide_row] = np.insert(wide, n - 1 - lagged, 1.0)
    return stack


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

    # a detect stack: one window whose neighborhood is 3k wide beside
    # windows with exactly k neighbors, so each window's neighbor densities
    # must land in its own slots
    stack = detect_stack(rng, k, wide_row=37)
    pos = 49 - lagged
    widths = {}
    for i, row in enumerate(stack):
        pts = row.tolist()
        exact_oracle()
        if oracle.kth_distance(pts, pos, k) > 0:
            widths[i] = len(oracle.neighbors(pts, pos, k))
    assert widths[37] >= 3 * k and list(widths.values()).count(k) > 10
    assert lof_at(stack, k, pos).tolist() == [float(lof_scores(row, k)[pos]) for row in stack]
    exact_oracle()
    assert lof_at(stack[37:38], k, pos)[0] == oracle.lof(stack[37].tolist(), pos, k)


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
