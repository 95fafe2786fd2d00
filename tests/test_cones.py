from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import reference_cones as ref
from hodgecalc import cones, matrices
from hodgecalc.cones import (
    dd_extreme_rays, hull_contains, hull_facets, in_hull, nonnegative_extreme_rays,
    primitive_rows,
)
from hodgecalc.errors import NotSpanned
from hodgecalc.matrices import Mat, kernel_basis, rank, rref
from hodgecalc.rationals import GaussianRational


def _brute_force_rays(basis_rows, ambient):
    """Oracle: candidate rays from all support patterns, kept when the
    constrained solution space is a single non-negative line with
    inclusion-minimal support."""
    from hodgecalc.matrices import sub_canonical
    space = sub_canonical(Mat.from_rows([list(r) for r in basis_rows]))
    if space.rows == 0:
        return tuple()
    d = rank(space)
    rays = []
    for size in range(1, ambient + 1):
        for support in combinations(range(ambient), size):
            # vectors in the row space vanishing off the support
            off = [j for j in range(ambient) if j not in support]
            # x = c . rows;  conditions x_j = 0 for j off support
            m = Mat.from_rows([[space[i, j] for i in range(space.rows)]
                               for j in off]) if off else Mat.zeros(0, space.rows)
            if off:
                sols = kernel_basis(m)
            else:
                sols = [tuple(Fraction(1) if i == k else Fraction(0)
                              for i in range(space.rows)) for k in range(space.rows)]
            if len(sols) != 1:
                continue
            x = [Fraction(0)] * ambient
            for c, i in zip(sols[0], range(space.rows)):
                if c:
                    row = space.row(i)
                    x = [a + (c * b).real_or_raise() if hasattr(c * b, "real_or_raise")
                         else a + c * b for a, b in zip(x, row)]
            x = [v.real_or_raise() if hasattr(v, "real_or_raise") else Fraction(v)
                 for v in x]
            if all(v == 0 for v in x):
                continue
            if all(v <= 0 for v in x):
                x = [-v for v in x]
            if any(v < 0 for v in x):
                continue
            actual = frozenset(j for j, v in enumerate(x) if v)
            if not actual <= frozenset(support):
                continue
            rays.append((ref.primitive_ray(x), actual))
    # keep support-minimal representatives
    out = set()
    for v, sup in rays:
        if not any(sup2 < sup for _, sup2 in rays):
            out.add(v)
    return tuple(sorted(out))


def _basis(rows, ambient):
    """The Mat of the row list `rows` in R^ambient, a 0 x ambient one when
    there are no rows."""
    return Mat.from_rows(rows) if rows else Mat.zeros(0, ambient)


def test_single_ray():
    assert nonnegative_extreme_rays(Mat.from_rows([[1, 1]])) == ((1, 1),)


def test_width_is_read_off_the_basis():
    # no separate ambient dimension can cut the rays short
    assert nonnegative_extreme_rays(Mat.from_rows([[1, 1, 1]])) == ((1, 1, 1),)
    assert nonnegative_extreme_rays(Mat.zeros(0, 3)) == ()


def test_full_space_gives_basis():
    rays = nonnegative_extreme_rays(Mat.identity(3))
    assert rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_not_spanned():
    with pytest.raises(NotSpanned):
        nonnegative_extreme_rays(Mat.from_rows([[1, -1]]))


def test_halfplane():
    # span{(1,0,-1), (0,1,1)} meets the orthant in a 2-dim cone
    rays = nonnegative_extreme_rays(Mat.from_rows([[1, 0, -1], [0, 1, 1]]))
    assert rays == _brute_force_rays([[1, 0, -1], [0, 1, 1]], 3)
    assert len(rays) == 2


def test_canonical_basis_is_not_eliminated_again(monkeypatch):
    """A basis already in canonical form is parametrized as it is: the rays
    take exactly the eliminations of the double description on its rows."""
    basis = Mat.from_rows([[1, 0, -1, 2], [0, 1, 1, 1]])
    calls = []

    def counted(m):
        calls.append(m)
        return rref(m)
    monkeypatch.setattr(cones, "rref", counted)
    monkeypatch.setattr(matrices, "rref", counted)
    rays = nonnegative_extreme_rays(basis)
    in_rays = len(calls)
    calls.clear()
    dd_extreme_rays(list(zip(*primitive_rows(basis))), 2)
    assert len(calls) == in_rays - 1        # only the rank of the rays remains
    assert rays == _brute_force_rays([[1, 0, -1, 2], [0, 1, 1, 1]], 4)


def test_seeded_against_brute_force():
    rng = random.Random(19)
    tried = 0
    for _ in range(60):
        ambient = rng.randint(2, 4)
        dim = rng.randint(1, ambient)
        rows = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(dim)]
        if rank(Mat.from_rows(rows)) == 0:
            continue
        expected = _brute_force_rays(rows, ambient)
        span_rank = rank(Mat.from_rows([list(r) for r in expected])) if expected else 0
        try:
            rays = nonnegative_extreme_rays(Mat.from_rows(rows))
        except NotSpanned:
            assert span_rank < rank(Mat.from_rows(rows))
            continue
        tried += 1
        assert rays == expected
    assert tried >= 10


def test_dd_orthant():
    rays, lin = dd_extreme_rays([(1, 0), (0, 1)], 2)
    assert sorted(rays) == [(0, 1), (1, 0)]
    assert lin == ()


def test_hull_membership():
    pts = [(0, 0), (2, 0), (0, 2)]
    assert hull_contains(pts, (1, 1))
    assert hull_contains(pts, (0, 0))
    assert not hull_contains(pts, (2, 1))
    assert not hull_contains(pts, (3, 0))


def test_hull_on_affine_subspace():
    # points on the line x + y = 2
    pts = [(2, 0), (0, 2)]
    assert hull_contains(pts, (1, 1))
    assert not hull_contains(pts, (1, 0))
    assert not hull_contains(pts, (3, -1))


# --- against the Fraction implementation ---------------------------------------------

def _entry(rng):
    """An int, or now and then a Fraction or a real GaussianRational."""
    x = rng.randint(-3, 3)
    roll = rng.random()
    if roll < 0.15:
        return Fraction(x, rng.choice((2, 3, 5)))
    if roll < 0.25:
        return GaussianRational(Fraction(x, rng.choice((1, 4))))
    return x


def _system(rng):
    """Seeded inequalities on R^dim: fewer rows than dim leave a lineality,
    zero and repeated rows included."""
    dim = rng.randint(0, 5)
    rows = [[_entry(rng) for _ in range(dim)] for _ in range(rng.randint(0, 7))]
    if rows and rng.random() < 0.3:
        rows.append([0] * dim)
    if rows and rng.random() < 0.3:
        rows.append([2 * x for x in rng.choice(rows)])
    return rows, dim


def _cleared(rows):
    """Each row times the lcm of its denominators, not divided by its gcd:
    the library's double description reads integer rows."""
    out = []
    for row in rows:
        fracs = [ref._as_frac(x) for x in row]
        d = lcm(*(f.denominator for f in fracs))
        out.append([int(f * d) for f in fracs])
    return out


def test_dd_extreme_rays_match_fraction_implementation():
    lines = 0
    for seed in range(1500):
        rows, dim = _system(random.Random(seed))
        rays, lin = dd_extreme_rays(_cleared(rows), dim)
        assert (rays, lin) == ref.dd_extreme_rays(rows, dim), seed
        lines += bool(rays) and bool(lin)
    assert lines >= 100    # cones with rays that are not pointed


def test_dd_extreme_rays_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4),
                                                    st.integers(1, 6)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(0, 4).flatmap(
        lambda dim: st.tuples(st.just(dim), st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                                     max_size=6))))
    def check(case):
        dim, rows = case
        assert dd_extreme_rays(_cleared(rows), dim) == ref.dd_extreme_rays(rows, dim)
    check()


def test_nonnegative_rays_and_hulls_match_fraction_implementation():
    def outcome(f, *args):
        try:
            return f(*args)
        except NotSpanned as exc:
            return str(exc)

    for seed in range(300):
        rng = random.Random(seed)
        ambient = rng.randint(1, 5)
        rows = [[_entry(rng) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
        assert (outcome(nonnegative_extreme_rays, _basis(rows, ambient))
                == outcome(ref.nonnegative_extreme_rays, rows, ambient)), seed
        dim = rng.randint(1, 3)
        points = [tuple(rng.randint(-2, 2) for _ in range(dim))
                  for _ in range(rng.randint(0, 5))]
        query = tuple(rng.randint(-2, 2) for _ in range(dim))
        assert hull_contains(points, query) == ref.hull_contains(points, query), seed


def test_facets_computed_once_answer_like_the_fraction_hull():
    """One `hull_facets` per point set answers every query of a grid as the
    Fraction implementation does, lower-dimensional hulls included (one or
    two points, collinear or repeated points)."""
    lower = 0
    for seed in range(40):
        rng = random.Random(seed)
        dim = rng.randint(1, 3)
        points = [tuple(rng.randint(-2, 2) for _ in range(dim))
                  for _ in range(rng.randint(1, 6))]
        lower += rank(Mat.from_rows([p + (1,) for p in points])) <= dim
        facets = hull_facets(points, dim)
        for _ in range(30):
            query = tuple(rng.randint(-3, 3) for _ in range(dim))
            assert in_hull(facets, query) == ref.hull_contains(points, query), (seed, query)
    assert lower >= 5


def test_permutation_check_runs_double_description_once(dollar_bill, monkeypatch):
    from reference_orbit import permutation_monomial_check
    calls = []

    def counted(*args):
        calls.append(args)
        return dd_extreme_rays(*args)
    monkeypatch.setattr(cones, "dd_extreme_rays", counted)
    rep = permutation_monomial_check(dollar_bill, (2, 0, 1))
    assert rep.hull_ok
    assert len(calls) == 1 and len(calls[0][0]) == 6      # the 3! chain points


def test_primitive_ray():
    assert ref.primitive_ray([Fraction(1, 2), Fraction(-3, 4), 0]) == (2, -3, 0)
    assert ref.primitive_ray([GaussianRational(6), "9", 0]) == (2, 3, 0)
    assert ref.primitive_ray([0, 0]) == (0, 0)
    assert ref.primitive_ray([]) == ()
    with pytest.raises(ValueError):
        ref.primitive_ray([GaussianRational(1, 1)])


def test_primitive_rows_are_the_primitive_rays_of_the_rows():
    for seed in range(200):
        rng = random.Random(seed)
        cols = rng.randint(0, 5)
        rows = [[_entry(rng) for _ in range(cols)] for _ in range(rng.randint(0, 4))]
        m = _basis(rows, cols)
        assert primitive_rows(m) == [ref.primitive_ray(row) for row in rows], seed
    assert primitive_rows(Mat.from_rows([[Fraction(2, 3), 0, -4], [0, 0, 0]])) == [
        (1, 0, -6), (0, 0, 0)]
    with pytest.raises(ValueError):
        primitive_rows(Mat.from_rows([[1, 0], [GaussianRational(1, 1), 2]]))
