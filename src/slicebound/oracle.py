"""Independent ground truth: Monte-Carlo and exact section volumes, the
two-sided Fourier/Parseval identity checker, and Wills / mean-width oracles.

Nothing in this module reuses a bound formula; estimates come from rejection
sampling, Qhull halfspace intersection, or quadrature of Fourier transforms,
so agreement with the bounds module is evidence rather than tautology.  The
three Monte-Carlo oracles (polytope and l_p ball volumes, the Wills
functional) sample one envelope, a parallelotope cut by k of the body's own
slabs picked by a pivoted QR, which the Wills oracle widens by 3.  One
block driver, _blocks, draws on every CPU, each block from its own place
in the serial stream, so no estimate depends on the number of CPUs.  Up to
EXACT_MAX_K one primitive, _hull, gives a section's exact geometry: its
volume, the segments covering its edges and each segment's share of its
normal cone.  The exact volume, V_1 and the Wills oracle's exact distances
all read it.  The Parseval right-hand side integrates in polar coordinates:
one evaluator takes the radial integrals exactly, as batched sine-product
integrals, and the angle is the single point of d = 1, an adaptive
quadrature cut at the integrand's kinks and knots for d = 2, or a sphere
grid for d = 3.
"""

import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.linalg import qr
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from ._kernels import count_inside, dykstra_distances, exact_distances
from .bodies import section_polytope
from .decomp import lift
from .errors import (DegenerateRegimeError, DomainError, GateError,
                     StructuralError)
from .specfun import _sinc_product_integrals

_CHUNK = 1 << 16          # fixed batch size keeps streams seed-reproducible
_BLOCK = 1 << 14          # columns of a chunk one block takes
_PERIOD = 1 << 128        # PCG64's state cycle
EXACT_MAX_K = 3           # exact volume, V_1, Parseval lhs, distances


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:        # no affinity masks on this platform
        return os.cpu_count() or 1


def _new_pool():
    global _POOL
    _POOL = ThreadPoolExecutor(max(_WORKERS - 1, 1))


# _blocks draws on every CPU the process may run on: the caller and
# _WORKERS - 1 pool threads.  A forked child gets a pool of its own, since
# the parent's threads do not exist there.
_WORKERS = _cpus()
_new_pool()
if hasattr(os, "register_at_fork"):       # no fork on Windows
    os.register_at_fork(after_in_child=_new_pool)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    hit_rate: float


def _check_bounded(poly):
    normals, offsets = poly.expanded_constraints()
    if np.linalg.matrix_rank(normals, tol=1e-10) < poly.k:
        raise StructuralError("polytope is unbounded: normals do not span")
    if not poly.symmetric:
        # spanning normals bound the polytope iff they also span positively:
        # some lambda >= 1 has sum_i lambda_i a_i = 0
        res = linprog(np.zeros(len(normals)), A_eq=normals.T,
                      b_eq=np.zeros(poly.k), bounds=(1.0, None))
        if res.status != 0:
            raise StructuralError("polytope is unbounded in some direction")


def _slab_envelope(rows, lo, hi):
    """The parallelotope that k of the slabs lo_i <= <a_i, y> <= hi_i cut,
    where every slab holds on the body and the rows a_i span R^k.

    The k slabs come from a pivoted QR of the rows a_i over their
    half-widths, which keeps |det| of the picked scaled rows M_S large and
    so the parallelotope small.  Returns (C, shift, pick, volume): the map
    y(u) = M_S^-1 (u + mid_S / half_S) carries [-1, 1]^k onto the
    parallelotope, <a_i, y(u)> = (C u)_i + shift_i for every row i with
    C = A M_S^-1, and volume = 2^k prod half_S / |det A_S| is a Python float.
    """
    k = rows.shape[1]
    if np.any(hi <= lo):
        raise DegenerateRegimeError("empty slab: the body is empty")
    half = 0.5 * (hi - lo)
    scaled = rows / half[:, None]
    r, piv = qr(scaled.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))       # non-increasing under column pivoting
    if len(diag) < k or diag[k - 1] <= 1e-12 * diag[0]:
        raise StructuralError("the slabs do not span the section")
    pick = piv[:k]
    c = np.linalg.solve(scaled[pick].T, rows.T).T
    shift = c @ (0.5 * (hi[pick] + lo[pick]) / half[pick])
    return c, shift, pick, float(2.0 ** k / np.prod(diag[:k]))


def _take_blocks(fn, state, k, widest, todo):
    """fn's results on the blocks (start, stride, width) it takes from the
    deque todo until none is left: row r of a block is the width draws
    from word start + r stride of the stream.  One PCG64 copy of the seeded
    state jumps to each row by advance, modulo the 2^128 period of its
    state, and fills it as Generator.random does the serial chunk's row."""
    bits = np.random.PCG64()
    bits.state = state
    gen = np.random.Generator(bits)
    buf = np.empty(k * widest)
    results, pos = [], 0
    while True:
        try:
            start, stride, width = todo.popleft()    # thread-safe
        except IndexError:
            return results
        u = buf[:k * width].reshape(k, width)
        for r in range(k):
            bits.advance((start + r * stride - pos) % _PERIOD)
            gen.random(out=u[r])
            pos = start + r * stride + width
        u *= 2.0
        u -= 1.0
        results.append(fn(u))


def _blocks(fn, k, samples, seed):
    """fn's results on the blocks of the seeded stream of uniform points of
    [-1, 1]^k, one (k, N) array each, in no fixed order; fn must not keep
    the array, whose buffer the next block reuses.

    The stream is the serial one: chunks of _CHUNK samples, each the (k, n)
    array rng.uniform(-1, 1, (k, n)), so equal seeds give equal streams.  A
    uniform d on [0, 1) takes one PCG64 word, so chunk c, starting at sample
    done, holds row r at words k done + r n onward, and PCG64.advance jumps
    a copy of the seeded state there.  The chunks are cut into blocks of
    _BLOCK columns, which the caller and _WORKERS - 1 pool threads take
    from one queue as they come free.  A pool task that has not started
    when the caller finds the queue empty is cancelled rather than waited
    for, so a call never waits for a thread to wake.  Each block is drawn
    into a reused buffer as 2 d - 1, which is rng.uniform(-1, 1) bit for
    bit: d is a multiple of 2^-53, so 2 d and 2 d - 1 are exact.  Every
    sample lies in one block, at its serial place, so a sum over the blocks
    that is exact or exactly rounded is the same for any worker count and
    any order of the blocks."""
    if samples < 1000:
        raise StructuralError("need at least 1000 samples")
    state = np.random.PCG64(seed).state
    todo = deque()
    for done in range(0, samples, _CHUNK):
        n = min(_CHUNK, samples - done)
        todo += [(k * done + s, n, min(_BLOCK, n - s))
                 for s in range(0, n, _BLOCK)]
    widest = todo[0][2]
    futures = [_POOL.submit(_take_blocks, fn, state, k, widest, todo)
               for _ in range(min(_WORKERS, len(todo)) - 1)]
    try:
        results = _take_blocks(fn, state, k, widest, todo)
    finally:
        todo.clear()                    # on error, stop the others early
        # a task not yet started would find no block: cancel it rather
        # than wait for its thread to wake; wait for the others
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for f in started:
        results += f.result()
    return results


def _hit_or_miss(count_hits, volume, k, samples, seed):
    """Volume of a body from the hit counts of uniform points of [-1, 1]^k,
    which an affine map of the given volume carries onto an envelope of the
    body (_slab_envelope); count_hits takes one (k, N) block of points.
    The hit count is a sum of integers over the blocks (_blocks)."""
    hits = sum(_blocks(count_hits, k, samples, seed))
    if hits == 0:
        raise DegenerateRegimeError(f"no hit in {samples} samples")
    p = hits / samples
    # the Wilson score half-width at z = 1: it stays positive at hit rate 1,
    # where it is 1/(2(n+1)), and the binomial sqrt(p(1-p)/n) would be 0
    se = (math.sqrt(p * (1.0 - p) / samples + 0.25 / samples ** 2)
          / (1.0 + 1.0 / samples))
    return McEstimate(mean=volume * p, std_error=volume * se,
                      samples=samples, seed=seed, hit_rate=p)


def _slabs(poly):
    """Slabs lo_i <= <a_i, y> <= hi_i that hold on a bounded polytope:
    |<a_i, y>| <= b_i when symmetric, else -R|a_i| <= <a_i, y> <=
    min(b_i, R|a_i|) with R the circumradius."""
    normals, offsets = poly.normals, poly.offsets
    if poly.symmetric:
        return -offsets, offsets
    reach = poly.circumradius * np.linalg.norm(normals, axis=1)
    return -reach, np.minimum(offsets, reach)


def mc_volume(poly, samples, seed):
    """Hit-or-miss volume of an H-representation polytope in the
    parallelotope cut from its own slabs (_slabs).  The picked slabs hold
    on every sample, so only the others are tested."""
    _check_bounded(poly)
    c, shift, pick, volume = _slab_envelope(poly.normals, *_slabs(poly))
    rest = np.ones(len(poly.normals), dtype=bool)
    rest[pick] = False
    c, bound = c[rest], poly.offsets[rest] - shift[rest]
    return _hit_or_miss(
        lambda u: count_inside(u.T, c, bound, poly.symmetric),
        volume, poly.k, samples, seed)


def _hull(poly):
    """Exact geometry of a bounded section with k <= EXACT_MAX_K: its volume,
    segments (E, 2, k) covering its edges (the interval itself at k = 1),
    and each segment's share of 2 pi in its normal cone: 1 at k = 1, 1/2 at
    k = 2, the exterior angle over 2 pi at k = 3.  Qhull starts at the
    Chebyshev centre, which an LP finds unless the section is symmetric.
    Flat or empty sections raise DegenerateRegimeError."""
    k = poly.k
    if k > EXACT_MAX_K:
        raise StructuralError(f"exact geometry for k <= {EXACT_MAX_K} only")
    _check_bounded(poly)
    normals, offsets = poly.expanded_constraints()
    flat = 1e-9 * poly.circumradius  # an inradius below this is flat
    if k == 1:
        a = normals[:, 0]
        ends = np.array([[[np.max(offsets[a < 0] / a[a < 0])],
                          [np.min(offsets[a > 0] / a[a > 0])]]])
        length = ends[0, 1, 0] - ends[0, 0, 0]
        if length <= 2.0 * flat:
            raise DegenerateRegimeError(f"flat interval {ends.ravel()}")
        return length, ends, np.ones(1)
    # Chebyshev centre: the centre x of the largest ball of radius r inside;
    # a symmetric body holding B(c, r) holds B(-c, r) and so B(0, r)
    scale = np.linalg.norm(normals, axis=1)
    if poly.symmetric:
        x = np.r_[np.zeros(k), np.min(offsets / scale)]
    else:
        res = linprog(np.r_[np.zeros(k), -1.0],
                      A_ub=np.column_stack([normals, scale]), b_ub=offsets,
                      bounds=[(None, None)] * k + [(0.0, None)])
        x = res.x if res.status == 0 else np.zeros(k + 1)
    if x[-1] <= flat:
        raise DegenerateRegimeError("flat or empty polytope: no interior")
    try:
        verts = HalfspaceIntersection(
            np.column_stack([normals, -offsets]), x[:k]).intersections
        hull = ConvexHull(verts)
    except QhullError as exc:
        raise DegenerateRegimeError(f"flat polytope: {exc}") from exc
    if k == 2:
        return hull.volume, verts[hull.simplices], np.full(
            len(hull.simplices), 0.5)
    # triangle i meets neighbors[i, m] along the edge opposite its vertex m;
    # the angle between their normals is exactly 0 on the diagonals that
    # Qhull's triangulation draws inside a facet, which are no edges
    once = np.arange(len(hull.simplices))[:, None] < hull.neighbors
    ends = verts[hull.simplices[:, [[1, 2], [2, 0], [0, 1]]][once]]
    n_i = hull.equations[np.nonzero(once)[0], :3]
    n_j = hull.equations[hull.neighbors[once], :3]
    share = np.arctan2(np.linalg.norm(np.cross(n_i, n_j), axis=1),
                       np.sum(n_i * n_j, axis=1)) / (2.0 * math.pi)
    return hull.volume, ends[share > 0.0], share[share > 0.0]


def exact_volume_smallk(poly):
    """Exact volume from the Qhull hull; supports k <= EXACT_MAX_K.  A flat
    (lower-dimensional) polytope raises DegenerateRegimeError."""
    return float(_hull(poly)[0])


def mc_kp_section_volume(ball, H, samples, seed):
    """Hit-or-miss volume of {x in H : ||x||_ball <= 1} in the parallelotope
    cut from the slabs |<y, w_j>| <= alpha_j^(-1/p), w_j = H.basis v_j, which
    hold on the body because every term of the norm is at most 1.  The norm
    comes from C u, the dot products <x, v_j> of the sample points."""
    half = ball.alphas ** (-1.0 / ball.p)
    c, _, _, volume = _slab_envelope(
        ball.decomp.vectors @ H.basis.T, -half, half)
    return _hit_or_miss(
        lambda u: int(np.count_nonzero(ball.norm_from_dots(c @ u) <= 1.0)),
        volume, H.k, samples, seed)


def _complement_integral(a, b, w, d):
    """Integral over R^d of prod_j indicator_ft(a_j, b_j <y, w_j>).

    a: half-widths; b: defect scales sqrt(1-tc); w: rows in R^d.  In polar
    coordinates the radial integrals are exact (radial below); the
    complement dimensions differ only in the angular scheme.
    """
    scaled = b[:, None] * w          # (m1, d)

    def radial(thetas, nudged=False):
        """The radial integrals of r^(d-1) prod_j factor_j(r theta) over
        r > 0, for the rows theta of thetas, as sinc-product integrals.

        Factors whose projection on theta vanishes contribute constants;
        the rest reduce to a sinc-product integral with exponent
        m_active - (d - 1), one batched call per pattern of active factors.
        Rows with exponent < 1 are 0 (a measure-zero degenerate direction).
        The integral log-diverges on a measure-zero set of exactly
        degenerate directions; such rows are taken once more at a nudged
        direction.
        """
        s = thetas @ scaled.T
        active = np.abs(s) > 1e-13
        vals = np.zeros(len(thetas))
        for pattern in np.unique(active, axis=0):
            q = int(pattern.sum()) - (d - 1)
            if q < 1:
                continue
            rows = np.flatnonzero((active == pattern).all(axis=1))
            s_act = s[np.ix_(rows, pattern)]
            const = (float(np.prod(2.0 * a[~pattern]))
                     * np.prod(2.0 / s_act, axis=1))
            vals[rows] = const * _sinc_product_integrals(a[pattern] * s_act, q)
        bad = np.isnan(vals)
        if bad.any():
            if nudged:
                raise DomainError("divergent radial integral")
            shifted = thetas[bad] + np.arange(1.0, d + 1.0) * 2.5e-9
            vals[bad] = radial(
                shifted / np.linalg.norm(shifted, axis=1)[:, None], True)
        return vals

    if d == 1:
        return 2.0 * float(radial(np.array([[1.0]]))[0]), False
    if d == 2:
        # the angular integrand has a kink where theta is orthogonal to some
        # b_j w_j and a knot where a combined frequency of the sine product,
        # theta . sum_j eps_j a_j b_j w_j, vanishes: cut the quad there
        eps = np.array([(1.0,) + e for e in
                        itertools.product((1.0, -1.0), repeat=len(a) - 1)])
        vecs = np.vstack([scaled, eps @ (a[:, None] * scaled)])
        vecs = vecs[np.linalg.norm(vecs, axis=1) > 1e-12]
        cuts = np.sort(np.mod(np.arctan2(vecs[:, 1], vecs[:, 0])
                              + 0.5 * math.pi, math.pi))
        cuts = cuts[np.r_[True, np.diff(cuts) > 1e-9]]
        cuts = cuts[(cuts > 1e-9) & (cuts < math.pi - 1e-9)]

        def angular(phi):
            return radial(np.array([[math.cos(phi), math.sin(phi)]]))[0]

        # a fourth value is QUADPACK's message that it did not converge
        v, _, _, *failed = integrate.quad(
            angular, 0.0, math.pi, epsabs=2e-9, limit=400 + cuts.size,
            points=cuts, full_output=1)
        if failed:
            raise DegenerateRegimeError(
                f"d = 2 angular quadrature failed: {failed[0]}")
        return 2.0 * v, False
    # d = 3: deterministic sphere grid for the angular average; the radial
    # integral stays exact, but the kinked angular integrand limits the grid
    # average to about 1% relative accuracy (reported via the flag)
    dirs = _sphere_grid(4000)
    return 4.0 * math.pi * float(radial(dirs).sum()) / len(dirs), True


def parseval_check(proj, samples=10 ** 6, seed=0):
    """Two-sided check of the section-volume Fourier identity.

    lhs: volume of the section polytope (exact when k <= EXACT_MAX_K, MC
    otherwise, with its standard error in gates["lhs_std_error"]).
    rhs: (2 pi)^-d times the integral over the lifted orthogonal complement
    of the product of interval Fourier transforms.  Gates: the defect
    vectors must have full rank d, and more than d factors must be
    nontrivial, else the identity is not asserted.  A d = 2 angular
    quadrature that does not converge raises DegenerateRegimeError.
    """
    lf = lift(proj)
    d = proj.m0 - proj.k
    gates = {"rank_full": True, "factor_count": True, "mc_rhs": False,
             "lhs_std_error": 0.0}
    a_all = np.sqrt(proj.tilde_weights) * proj.thresholds
    if d == 0:
        rhs = float(np.prod(2.0 * a_all))
    else:
        defect_rank = np.linalg.matrix_rank(
            np.sqrt(lf.defect_weights)[:, None] * lf.complement_vectors,
            tol=1e-10,
        )
        gates["rank_full"] = bool(defect_rank == d)
        m1 = len(lf.complement_indices)
        gates["factor_count"] = bool(m1 > d)
        if not (gates["rank_full"] and gates["factor_count"]):
            raise GateError(
                "identity not asserted: defect rank "
                f"{defect_rank}/{d}, nontrivial factors {m1}"
            )
        if d > 3:
            raise StructuralError("complement dimension > 3 unsupported")
        const = 1.0                # a Python float, as every output is
        trivial = np.setdiff1d(np.arange(proj.m0), lf.complement_indices)
        for j in trivial:
            const *= 2.0 * float(a_all[j])
        a = a_all[lf.complement_indices]
        b = np.sqrt(lf.defect_weights)
        integral, used_mc = _complement_integral(
            a, b, lf.complement_vectors, d)
        gates["mc_rhs"] = used_mc
        rhs = const * integral / (2.0 * math.pi) ** d

    poly = section_polytope(proj)
    if proj.k <= EXACT_MAX_K:
        lhs = exact_volume_smallk(poly)
    else:
        est = mc_volume(poly, samples, seed)
        lhs = est.mean
        gates["lhs_std_error"] = est.std_error
    return lhs, rhs, gates


def wills_oracle(poly, samples, seed):
    """MC estimate of the Wills functional: integral of exp(-pi dist^2).

    The integrand is below 1e-12 beyond distance 3, so the points are
    uniform in the parallelotope of mc_volume's slabs (_slabs) widened by
    3|a_i| on each side, which holds the section grown by 3.  The distance
    to the section is exact for k <= EXACT_MAX_K (nearest facet, edge or
    vertex of the hull) and Dykstra's cyclic projection above.  Each block
    gives its sums of f and f^2 and its count of samples inside, where the
    distance is exactly 0 (hit_rate); math.fsum adds the blocks' sums
    exactly rounded, so the estimate does not depend on the worker count
    or the order of the blocks."""
    k = poly.k
    if k > EXACT_MAX_K:            # else _hull checks it
        _check_bounded(poly)
    edges = _hull(poly)[1] if k <= EXACT_MAX_K else None
    lo, hi = _slabs(poly)
    grow = 3.0 * np.linalg.norm(poly.normals, axis=1)
    lo, hi = lo - grow, hi + grow
    _, _, pick, volume = _slab_envelope(poly.normals, lo, hi)
    # y(u) = M_S^-1 u + y0 maps [-1, 1]^k onto the parallelotope
    half = 0.5 * (hi[pick] - lo[pick])
    to_y = np.linalg.inv(poly.normals[pick] / half[:, None]).T
    y0 = (0.5 * (hi[pick] + lo[pick]) / half) @ to_y
    normals, offsets = poly.expanded_constraints()
    scale = np.linalg.norm(normals, axis=1)
    normals = normals / scale[:, None]
    offsets = offsets / scale

    def sums(u):
        pts = u.T @ to_y
        pts += y0
        dist = (dykstra_distances(pts, normals, offsets, 10 ** 4, 1e-9)
                if edges is None else
                exact_distances(pts, normals, offsets, edges))
        vals = np.exp(-math.pi * dist ** 2)
        return (float(vals.sum()), float((vals ** 2).sum()),
                int(np.count_nonzero(dist == 0.0)))

    blocks = _blocks(sums, k, samples, seed)
    mean_v = math.fsum(b[0] for b in blocks) / samples
    var_v = max(math.fsum(b[1] for b in blocks) / samples - mean_v ** 2, 0.0)
    return McEstimate(mean=volume * mean_v,
                      std_error=volume * math.sqrt(var_v / samples),
                      samples=samples, seed=seed,
                      hit_rate=sum(b[2] for b in blocks) / samples)


def _sphere_grid(count):
    """Fibonacci lattice of count points on S^2."""
    i = np.arange(count) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(1.0 - z ** 2, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def v1_oracle(poly):
    """First intrinsic volume from the Qhull hull; supports k <= EXACT_MAX_K.
    V_1 sums each edge's length times its share of 2 pi in its normal cone:
    the length at k = 1, half the perimeter at k = 2, and the edges' lengths
    times their exterior angles over 2 pi at k = 3."""
    _, ends, share = _hull(poly)
    length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    return float(np.sum(length * share))
