"""
How the outlier score reads a window
====================================

The detector scores every point in a window by comparing its local density
to its neighbors' densities.  A score near 1 means "as dense as the
neighborhood", noticeably above 1 means "isolated".  This walks the small
set {0, 1, 2, 10} where the arithmetic is easy to follow by hand.
"""

from hpcwatch.lof import lof_all, lof_scores, top_n_outliers

POINTS = [0.0, 1.0, 2.0, 10.0]
K = 2

# Neighborhoods first.  In one dimension the distance is |a - b|: a point's
# k-distance is the k-th smallest of its distances, and its neighborhood is
# every other point within it.  Point 10 is far from the cluster, so its
# 2-nearest neighbors are the cluster's edge.
for i, p in enumerate(POINTS):
    others = [q for j, q in enumerate(POINTS) if j != i]
    k_distance = sorted(abs(p - q) for q in others)[K - 1]
    members = sorted(q for q in others if abs(p - q) <= k_distance)
    print(f"point {p:4}: k-distance {k_distance:4}, neighbors {members}")

# Densities: the cluster points reach each other over short distances, the
# stray point only over long ones.
results = lof_all(POINTS, K)
print()
for p, r in zip(POINTS, results):
    print(f"lrd({p:4}) = {r.lrd:.6f}")

# Scores.  The cluster scores near 1, the stray point near 5: its neighbors
# are several times denser than it is.  lof_scores gives the same numbers
# as an array.
print()
for p, r in zip(POINTS, results):
    print(f"lof({p:4}) = {r.lof:.6f}")

assert lof_scores(POINTS, K).tolist() == [r.lof for r in results]
assert abs(results[3].lof - 4.958333) < 1e-5
assert abs(results[1].lof - 1.333333) < 1e-5

# Duplicates are the degenerate extreme: a window of identical values has
# no structure to be an outlier against, and everything scores exactly 1.
flat = [7.0] * 8
assert all(r.lof == 1.0 for r in lof_all(flat, K))
print("\nconstant window: every score is exactly 1.0")

# Ranking a noisy window surfaces the two planted spikes first.
window = [50.0, 51.0, 49.0, 52.0, 50.0, 400.0, 51.0, 48.0, 390.0, 50.0]
results = lof_all(window, 3)
top = top_n_outliers(results, 2)
print(f"top outliers at indices {top}: values {[window[i] for i in top]}")
