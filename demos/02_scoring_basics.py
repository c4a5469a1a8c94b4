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
# stray point only over long ones.  lof_all returns every point's density
# and score as two arrays, in point order.
lrd, lof = lof_all(POINTS, K)
print()
for p, density in zip(POINTS, lrd.tolist()):
    print(f"lrd({p:4}) = {density:.6f}")

# Scores.  The cluster scores near 1, the stray point near 5: its neighbors
# are several times denser than it is.  lof_scores gives the same scores.
print()
for p, score in zip(POINTS, lof.tolist()):
    print(f"lof({p:4}) = {score:.6f}")

assert lof_scores(POINTS, K).tolist() == lof.tolist()
assert abs(lof[3] - 4.958333) < 1e-5
assert abs(lof[1] - 1.333333) < 1e-5

# Duplicates are the degenerate extreme: a window of identical values has
# no structure to be an outlier against, and everything scores exactly 1.
flat = [7.0] * 8
assert (lof_all(flat, K)[1] == 1.0).all()
print("\nconstant window: every score is exactly 1.0")

# Ranking a noisy window surfaces the two planted spikes first.
# top_n_outliers takes both arrays and returns the top n points, each as a
# LofResult (index, lrd, lof).
window = [50.0, 51.0, 49.0, 52.0, 50.0, 400.0, 51.0, 48.0, 390.0, 50.0]
top = [r.index for r in top_n_outliers(*lof_all(window, 3), 2)]
print(f"top outliers at indices {top}: values {[window[i] for i in top]}")
