"""Hot numeric kernels: polytope membership counting, exact point-to-polytope
distances for k <= 3, and Dykstra projections for higher k, vectorized over
the points with numpy.  Membership is counted constraint-major, one row of N
dots per constraint: numpy ANDs long rows elementwise several times faster
than it reduces an (N, m) array along its short last axis."""

import numpy as np


def count_inside(points, normals, offsets, symmetric):
    dots = normals @ points.T
    if symmetric:
        np.abs(dots, out=dots)
    inside = np.ones(len(points), dtype=bool)
    for row, bound in zip(dots, offsets):
        inside &= row <= bound
    return int(np.count_nonzero(inside))


def exact_distances(points, normals, offsets, segments):
    # Distances to {x : <a_c, x> <= b_c for all c} in closed form for k <= 3;
    # normals must be unit vectors, and the segments (E, 2, k) must cover
    # the edges (for k = 1, the interval).  Inside points get exactly 0.
    # The largest violation is a lower bound, and the distance itself when
    # its foot on that facet is feasible, as it is whenever the nearest point
    # lies inside a facet; the other points take the nearest point of a
    # segment, in blocks of at most len(points) point-segment pairs.
    excess = points @ normals.T - offsets
    worst = excess.argmax(axis=1)
    dist = np.maximum(excess[np.arange(len(points)), worst], 0.0)
    out = np.flatnonzero(dist > 0.0)
    foot = points[out] - dist[out, None] * normals[worst[out]]
    rest = out[(foot @ normals.T - offsets).max(axis=1) > 1e-13]
    a, ab = segments[:, 0], segments[:, 1] - segments[:, 0]
    block = max(1, len(points) // len(segments))
    for start in range(0, len(rest), block):
        idx = rest[start:start + block]
        rel = [points[idx, i, None] - a[:, i] for i in range(a.shape[1])]
        t = np.clip(sum(r * e for r, e in zip(rel, ab.T))
                    / (ab * ab).sum(axis=1), 0.0, 1.0)
        d2 = sum((r - t * e) ** 2 for r, e in zip(rel, ab.T)).min(axis=1)
        dist[idx] = np.maximum(dist[idx], np.sqrt(d2))
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
