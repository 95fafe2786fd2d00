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
