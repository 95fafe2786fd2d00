"""Double description as it was first written, kept as a test oracle.

This is ``hodgecalc.cones`` before it ran on primitive integer vectors: the
same incremental algorithm and adjacency test in ``Fraction`` arithmetic,
with every zero set recomputed from the list of processed inequalities.
``test_cones.py`` asserts that the library returns the same rays,
lineality, nonnegative rays and hull memberships.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hodgecalc.errors import NotSpanned
from hodgecalc.matrices import Mat, rank, rref
from hodgecalc.rationals import GaussianRational


def _as_frac(x) -> Fraction:
    if isinstance(x, GaussianRational):
        return x.real_or_raise()
    return Fraction(x)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _scale_primitive(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    denoms = [x.denominator for x in v]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(x * lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def primitive_ray(v):
    """The primitive integer vector on the ray of a real rational vector
    (entries int, Fraction, decimal string or real GaussianRational), as
    ``hodgecalc.cones`` took it before its double description read integer
    rows alone."""
    return _scale_primitive([_as_frac(x) for x in v])


def dd_extreme_rays(inequalities, dim: int):
    """Extreme rays and final lineality of {y in R^dim : a . y >= 0}.

    Returns (rays, lineality) as tuples of rational tuples; rays are
    primitive-integer scaled.
    """
    lineality = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))
                 for i in range(dim)]
    rays = []           # list of (vector, zero-set frozenset)
    processed = []

    for a in inequalities:
        a = tuple(_as_frac(x) for x in a)
        idx = len(processed)
        # reduce lineality if it sticks out of the hyperplane
        pivot = None
        for l in lineality:
            d = _dot(a, l)
            if d != 0:
                pivot = tuple(x / d for x in l)
                break
        if pivot is not None:
            lineality = [tuple(x - _dot(a, l) * p for x, p in zip(l, pivot))
                         for l in lineality]
            lineality = [l for l in lineality if any(l)]
            # keep an independent basis
            if lineality:
                m = Mat.from_rows([list(l) for l in lineality])
                red, piv, rk = rref(m)
                lineality = [tuple(Fraction(x.re) for x in red.row(i)) for i in range(rk)]
            new_rays = []
            for v, z in rays:
                d = _dot(a, v)
                w = tuple(x - d * p for x, p in zip(v, pivot))
                new_rays.append((w, z | {idx}))
            new_rays.append((tuple(pivot), frozenset(
                j for j in range(idx) if _dot(processed[j], pivot) == 0)))
            rays = [(v, frozenset(z)) for v, z in new_rays]
            processed.append(a)
            continue

        plus, zero, minus = [], [], []
        for v, z in rays:
            d = _dot(a, v)
            if d > 0:
                plus.append((v, z, d))
            elif d == 0:
                zero.append((v, z | {idx}))
            else:
                minus.append((v, z, d))
        new_rays = [(v, z) for v, z, _ in plus] + zero
        for vp, zp, dp in plus:
            for vm, zm, dm in minus:
                common = zp & zm
                adjacent = True
                for v3, z3, _ in plus:
                    if v3 is not vp and common <= z3:
                        adjacent = False
                        break
                if adjacent:
                    for v3, z3, _ in minus:
                        if v3 is not vm and common <= z3:
                            adjacent = False
                            break
                if adjacent:
                    for v3, z3 in zero:
                        if common <= z3:
                            adjacent = False
                            break
                if not adjacent:
                    continue
                w = tuple(dp * x - dm * y for x, y in zip(vm, vp))
                # normalize early to keep numbers small
                w = tuple(Fraction(x) for x in _scale_primitive(w))
                zw = frozenset(j for j in range(idx + 1)
                               if _dot((processed + [a])[j], w) == 0)
                new_rays.append((w, zw))
        # update zero sets of surviving rays for the new inequality
        rays = []
        seen = set()
        for v, z in new_rays:
            key = _scale_primitive(v)
            if key in seen:
                continue
            seen.add(key)
            zz = frozenset(j for j in range(idx + 1)
                           if _dot((processed + [a])[j], v) == 0)
            rays.append((v, zz))
        processed.append(a)

    out = []
    seen = set()
    for v, _ in rays:
        key = _scale_primitive(v)
        if key not in seen:
            seen.add(key)
            out.append(key)
    lin = tuple(_scale_primitive(l) for l in lineality)
    return tuple(sorted(out)), lin


def nonnegative_extreme_rays(basis_rows, ambient: int):
    """Extreme rays of span(basis) ∩ {x >= 0}, as primitive integer vectors.

    Raises NotSpanned if the rays fail to span the subspace.
    """
    rows = [tuple(_as_frac(x) for x in r) for r in basis_rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return tuple()
    d = rank(Mat.from_rows([list(r) for r in rows]))
    # parametrize the subspace by the first d independent rows (canonical rref)
    red, piv, rk = rref(Mat.from_rows([list(r) for r in rows]))
    param = [tuple(Fraction(x.re) for x in red.row(i)) for i in range(rk)]
    # y in R^rk, x = sum y_i param_i; inequality rows: coordinates of x
    ineqs = []
    for coord in range(ambient):
        ineqs.append(tuple(p[coord] for p in param))
    rays_y, lin = dd_extreme_rays(ineqs, rk)
    if lin:
        raise NotSpanned("internal error: nonnegative cone contains a line")
    rays_x = []
    for ry in rays_y:
        x = [Fraction(0)] * ambient
        for c, p in zip(ry, param):
            if c:
                x = [a + c * b for a, b in zip(x, p)]
        if any(v < 0 for v in x):
            raise NotSpanned("internal error: ray escapes the orthant")
        rays_x.append(_scale_primitive(x))
    rays_x = sorted(set(rays_x))
    if not rays_x:
        span_rank = 0
    else:
        span_rank = rank(Mat.from_rows([list(r) for r in rays_x]))
    if span_rank != rk:
        raise NotSpanned(
            f"non-negative rays span rank {span_rank} < subspace rank {rk}")
    return tuple(rays_x)


def hull_contains(points, query) -> bool:
    """Exact membership of `query` in the convex hull of integer `points`.

    Uses cone duality: query is in the hull iff the lifted vector (query, 1)
    satisfies every facet inequality of the cone over the lifted points and
    lies in their linear span.
    """
    pts = [tuple(_as_frac(x) for x in p) + (Fraction(1),) for p in points]
    q = tuple(_as_frac(x) for x in query) + (Fraction(1),)
    d = len(q)
    span = Mat.from_rows([list(p) for p in pts])
    if rank(Mat.from_rows([list(p) for p in pts] + [list(q)])) != rank(span):
        return False
    # dual cone {h : h . p >= 0 for all p}; its rays/lineality give all facets
    rays, lin = dd_extreme_rays([p for p in pts], d)
    for h in rays:
        if _dot([Fraction(x) for x in h], q) < 0:
            return False
    return True
