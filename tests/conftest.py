from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hodgecalc.matrices import Mat, inverse
from hodgecalc.lmhs import PolarizedOrbitSpec


@pytest.fixture(scope="session")
def dollar_bill() -> PolarizedOrbitSpec:
    from hodgecalc.schemas import load_fixture
    return load_fixture("dollar-bill").obj


@pytest.fixture(scope="session")
def elliptic_degeneration() -> PolarizedOrbitSpec:
    from hodgecalc.schemas import load_fixture
    return load_fixture("elliptic-degeneration").obj


@pytest.fixture(scope="session")
def pure_elliptic() -> PolarizedOrbitSpec:
    from hodgecalc.schemas import load_fixture
    return load_fixture("pure-elliptic").obj


@pytest.fixture(scope="session")
def commuting_pair() -> PolarizedOrbitSpec:
    from hodgecalc.schemas import load_fixture
    return load_fixture("commuting-pair").obj


@pytest.fixture(scope="session")
def duplicated_pair() -> PolarizedOrbitSpec:
    from hodgecalc.schemas import load_fixture
    return load_fixture("duplicated-pair").obj


@pytest.fixture(scope="session")
def g24_model():
    from hodgecalc.schemas import load_fixture
    return load_fixture("grassmannian-g24").obj


def reverse_grading_candidates(monkeypatch):
    """Make the grading construction of `weightfilt` take its primitive lifts
    from the candidate rows in reversed order: another valid splitting, for
    checks that reported invariants do not depend on the splitting."""
    from hodgecalc import weightfilt
    extend = weightfilt.extend_basis
    monkeypatch.setattr(weightfilt, "extend_basis", lambda sub, candidates: extend(
        sub, candidates.take(range(candidates.rows - 1, -1, -1))))


def random_nilpotent(rng: random.Random, dim: int) -> Mat:
    """A seeded random nilpotent: strictly upper triangular conjugated by a
    random unimodular lower-triangular matrix."""
    a = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            a[i][j] = rng.randint(-2, 2)
    m = Mat.from_rows(a)
    l = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
          for j in range(dim)] for i in range(dim)]
    t = Mat.from_rows(l)
    return t @ m @ inverse(t)


def random_fraction(rng: random.Random, lo: int = 1, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def direct_sum(specs) -> PolarizedOrbitSpec:
    """Block-diagonal Q and N_j, stacked flags; every summand keeps its own
    variables, so P of the sum is the product of the summands' P."""
    dim = sum(s.dim for s in specs)
    offsets = [sum(s.dim for s in specs[:i]) for i in range(len(specs))]

    def embed(off, row):
        return [0] * off + list(row) + [0] * (dim - off - len(row))

    def block(off, m):
        rows = [[0] * dim for _ in range(dim)]
        for i in range(m.rows):
            rows[off + i] = embed(off, m.row(i))
        return Mat.from_rows(rows)

    q = sum((block(off, s.q) for off, s in zip(offsets, specs)), Mat.zeros(dim, dim))
    nilpotents = tuple(block(off, n) for off, s in zip(offsets, specs) for n in s.nilpotents)
    flag = []
    for p in range(specs[0].weight + 1):
        rows = [embed(off, s.flag[p].row(i)) for off, s in zip(offsets, specs)
                for i in range(s.flag[p].rows)]
        flag.append(Mat.from_rows(rows) if rows else Mat.zeros(0, dim))
    return PolarizedOrbitSpec(dim, specs[0].weight, q, nilpotents, tuple(flag))
