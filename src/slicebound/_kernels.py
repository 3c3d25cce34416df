"""Hot numeric kernels: polytope membership counting and Dykstra projections,
vectorized over the points with numpy."""

import numpy as np


def count_inside(points, normals, offsets, symmetric):
    dots = points @ normals.T
    if symmetric:
        inside = np.abs(dots) <= offsets
    else:
        inside = dots <= offsets
    return int(np.count_nonzero(inside.all(axis=1)))


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
