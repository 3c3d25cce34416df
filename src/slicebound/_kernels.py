"""Hot numeric kernels: polytope membership counting, exact point-to-polytope
distances for k <= 3, and Dykstra projections for higher k, vectorized over
the points with numpy.  Membership and exact distances run constraint-major,
on rows of N dots, one per constraint: numpy runs long rows elementwise
several times faster than it reduces an (N, m) array along its short axis.
Membership is one comparison of the (m, N) dots with the offsets, reduced by
.all over the constraint axis."""

import numpy as np


def count_inside(points, normals, offsets, symmetric):
    dots = normals @ points.T
    if symmetric:
        np.abs(dots, out=dots)
    return int(np.count_nonzero((dots <= offsets[:, None]).all(axis=0)))


def exact_distances(points, normals, offsets, segments):
    # Distances to {x : <a_c, x> <= b_c for all c} in closed form for k <= 3;
    # normals must be unit vectors, and the segments (E, 2, k) must cover
    # the edges (for k = 1, the interval).  Inside points get exactly 0.
    # A running max over the rows of excesses gives the largest violation, a
    # lower bound, and the first row that attains it; the violation is the
    # distance when its foot on that row is feasible, as it is whenever the
    # nearest point lies inside a facet.  The other points take a running min
    # over the segments of the distance to their nearest point.
    excess = normals @ points.T
    excess -= offsets[:, None]
    dist, worst = np.zeros(len(points)), np.zeros(len(points), dtype=np.intp)
    for c in range(len(excess)):
        np.maximum(worst, (excess[c] > dist) * c, out=worst)  # worst <= c
        np.maximum(dist, excess[c], out=dist)
    del excess                 # before the (m, P) excesses of the feet
    out = np.flatnonzero(dist > 0.0)
    foot = np.take(points, out, axis=0)     # faster than points[out]
    foot -= dist[out, None] * np.take(normals, worst[out], axis=0)
    rest = out[(normals @ foot.T - offsets[:, None]).max(axis=0) > 1e-13]
    rows = np.take(points, rest, axis=0).T.copy()
    d2 = np.full(len(rest), np.inf)
    for a, b in segments:
        ab = b - a
        rel = rows - a[:, None]
        t = np.clip(ab @ rel / (ab @ ab), 0.0, 1.0)
        np.minimum(d2, ((rel - t * ab[:, None]) ** 2).sum(axis=0), out=d2)
    dist[rest] = np.maximum(dist[rest], np.sqrt(d2))
    return dist


def dykstra_distances(points, normals, offsets, max_iter, tol):
    # Projects every point onto {x : <a_c, x> <= b_c for all c} by Dykstra's
    # cyclic scheme, with one stopping test for the whole batch; normals
    # must be unit vectors.  Returns Euclidean distances.
    y = points.copy()
    incr = np.zeros((normals.shape[0],) + points.shape)
    for it in range(max_iter):
        shift = 0.0
        for c in range(normals.shape[0]):
            w = y + incr[c]
            excess = w @ normals[c] - offsets[c]
            np.maximum(excess, 0.0, out=excess)
            y = w - excess[:, None] * normals[c]
            delta = w - y
            shift = max(shift, float(np.abs(delta - incr[c]).max()))
            incr[c] = delta
        if shift < tol:
            break
    return np.linalg.norm(points - y, axis=1)
