"""Exact polyhedral cones by the double description method.

Cones are handled in the halfspace form {y : a . y >= 0 for a in rows};
the incremental algorithm maintains a lineality basis and an extreme-ray
list, with the classical combinatorial adjacency test, so the output rays
are exactly the extreme rays.  Every vector is a primitive integer vector:
scaling by a positive rational changes neither a halfspace nor a ray, so
all arithmetic is on ints.
"""

from __future__ import annotations

from math import gcd

from .errors import NotSpanned
from .matrices import Mat, rank, rref, sub_canonical


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _project(v, a, p, d):
    """d v - (a . v) p: v moved along p into the hyperplane a . y = 0, for
    a . p = d."""
    c = _dot(a, v)
    return [d * x - c * y for x, y in zip(v, p)]


def _primitive(v):
    """An int vector divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def primitive_rows(m: Mat):
    """Each row of the real Mat m as the primitive integer vector on its ray,
    read off its integer rows; ValueError on a non-real entry."""
    if not m.is_real():
        raise ValueError("non-real entry where a real number is needed")
    return [_primitive(re) for re, _, _ in m.int_rows()]


def dd_extreme_rays(inequalities, dim: int):
    """Extreme rays and final lineality of {y in R^dim : a . y >= 0}, for
    integer rows a.

    Returns (rays, lineality) as tuples of primitive integer tuples; the
    lineality vectors are those of its reduced row echelon basis.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []           # list of (vector, zero-set frozenset)
    processed = []

    for idx, a in enumerate(inequalities):
        a = _primitive(a)
        processed.append(a)
        p = next((l for l in lineality if _dot(a, l)), None)
        if p is not None:
            # the lineality vector p sticks out of the hyperplane: oriented
            # into the halfspace it becomes a ray, and the rest of the
            # lineality is projected into the hyperplane along it
            d = _dot(a, p)
            if d < 0:
                p, d = tuple(-x for x in p), -d
            lineality = [w for w in (_project(l, a, p, d) for l in lineality) if any(w)]
            # keep an independent basis
            if lineality:
                red, _, rk = rref(Mat.from_int_rows(lineality, 1))
                lineality = primitive_rows(red.take(range(rk)))
            rays = [(_primitive(_project(v, a, p, d)), z | {idx}) for v, z in rays]
            # the lineality lies in every earlier hyperplane, and so does p
            rays.append((p, frozenset(range(idx))))
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
                adjacent = (not any(v3 is not vp and common <= z3 for v3, z3, _ in plus)
                            and not any(v3 is not vm and common <= z3 for v3, z3, _ in minus)
                            and not any(common <= z3 for _, z3 in zero))
                if not adjacent:
                    continue
                w = _primitive([dp * x - dm * y for x, y in zip(vm, vp)])
                new_rays.append((w, frozenset(j for j, b in enumerate(processed)
                                              if _dot(b, w) == 0)))
        # the zero sets are exact, so only repeated rays go
        rays = list(dict(new_rays).items())

    return tuple(sorted({v for v, _ in rays})), tuple(lineality)


def nonnegative_extreme_rays(basis: Mat):
    """Extreme rays of rowspace(basis) ∩ {x >= 0} in R^basis.cols, as
    primitive integer vectors.

    Raises NotSpanned if the rays fail to span the subspace.
    """
    # parametrize the subspace by its canonical basis
    param = primitive_rows(sub_canonical(basis))
    rk = len(param)
    if not rk:
        return tuple()
    # y in R^rk, x = sum y_i param_i; inequality rows: coordinates of x
    ineqs = list(zip(*param))
    rays_y, lin = dd_extreme_rays(ineqs, rk)
    if lin:
        raise NotSpanned("internal error: nonnegative cone contains a line")
    rays_x = []
    for ry in rays_y:
        x = [_dot(ry, col) for col in ineqs]
        if any(v < 0 for v in x):
            raise NotSpanned("internal error: ray escapes the orthant")
        rays_x.append(_primitive(x))
    rays_x = sorted(set(rays_x))
    span_rank = rank(Mat.from_int_rows(rays_x, 1))
    if span_rank != rk:
        raise NotSpanned(
            f"non-negative rays span rank {span_rank} < subspace rank {rk}")
    return tuple(rays_x)


def hull_facets(points, dim: int):
    """The facets of the convex hull of integer `points` in R^dim, for
    `in_hull`: the rays and lineality of {h : h . (p, 1) >= 0 for all p}."""
    return dd_extreme_rays([tuple(p) + (1,) for p in points], dim + 1)


def in_hull(facets, query) -> bool:
    """Exact membership of `query` in the hull with these `hull_facets`: the
    cone over the lifted points is the dual of its dual, so (query, 1) lies in
    it iff h . (query, 1) is >= 0 on each ray h and 0 on each lineality vector.
    """
    rays, lineality = facets
    q = tuple(query) + (1,)
    return all(_dot(h, q) >= 0 for h in rays) and not any(_dot(l, q) for l in lineality)


def hull_contains(points, query) -> bool:
    """Exact membership of `query` in the convex hull of integer `points`."""
    return in_hull(hull_facets(points, len(query)), query)
