"""Property tests: ``hodgecalc.rationals`` against the class it replaced.

The oracle is the ``GaussianRational`` kept in ``reference_rationals``,
which coerces every part of every result.  Each arithmetic method, reflected
forms included, must give the same value on zero, real, purely imaginary and
Gaussian operands against Gaussian, int, ``Fraction`` and string others,
with numerators up to 2^70; every result must be a ``GaussianRational`` whose
parts are ``Fraction`` instances, and division by zero must raise the same
error.  ``Mat``'s lazy entry views and document scalars are held to the
same contract.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import reference_rationals as ref
from hodgecalc.matrices import Mat
from hodgecalc.rationals import GaussianRational

BINARY = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__")


def assert_exact(ours, theirs):
    """ours is a GaussianRational with Fraction parts, equal to theirs."""
    assert type(ours) is GaussianRational
    assert type(ours.re) is Fraction and type(ours.im) is Fraction
    assert (ours.re, ours.im) == (theirs.re, theirs.im)


def outcome(fn, *args):
    """fn(*args), or the type and message of the ZeroDivisionError it raises."""
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


def assert_same_outcome(ours, theirs):
    if isinstance(theirs, tuple):
        assert ours == theirs
    else:
        assert_exact(ours, theirs)


def _strategies(st):
    small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))
    big = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70))
    nonzero = st.one_of(small, big).filter(bool)
    zero = st.just(Fraction(0))
    parts = st.one_of(
        st.tuples(zero, zero),                   # zero
        st.tuples(nonzero, zero),                # real
        st.tuples(zero, nonzero),                # purely imaginary
        st.tuples(nonzero, nonzero))             # Gaussian
    others = st.one_of(
        parts.map(lambda p: ("gauss", p)),
        st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)).map(lambda x: ("int", x)),
        st.one_of(zero, small, big).map(lambda x: ("fraction", x)),
        st.one_of(zero, small, big).map(lambda x: ("str", str(x))))
    return parts, others


def test_arithmetic_matches_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parts, others = _strategies(st)

    @hypothesis.settings(max_examples=600, deadline=None)
    @hypothesis.given(parts, others, st.integers(0, 5))
    def check(p, other, n):
        ours, theirs = GaussianRational(*p), ref.GaussianRational(*p)
        kind, value = other
        if kind == "gauss":
            ours_o, theirs_o = GaussianRational(*value), ref.GaussianRational(*value)
        else:
            ours_o = theirs_o = value
        for name in BINARY:
            assert_same_outcome(outcome(getattr(ours, name), ours_o),
                                outcome(getattr(theirs, name), theirs_o))
        assert_exact(-ours, -theirs)
        assert_exact(ours.conj(), theirs.conj())
        assert_exact(ours ** n, theirs ** n)
    check()


def test_operators_with_plain_others_on_the_left():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parts, others = _strategies(st)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(parts, others.filter(lambda o: o[0] in ("int", "fraction")))
    def check(p, other):
        ours, theirs, x = GaussianRational(*p), ref.GaussianRational(*p), other[1]
        assert_exact(x + ours, x + theirs)
        assert_exact(x - ours, x - theirs)
        assert_exact(x * ours, x * theirs)
        assert_same_outcome(outcome(lambda: x / ours), outcome(lambda: x / theirs))
    check()


@pytest.mark.parametrize("zero", [0, Fraction(0), "0", "0/5", (0, 0)],
                         ids=["int", "fraction", "str", "str-fraction", "gauss"])
def test_division_by_zero_raises_the_same_error(zero):
    ours_zero = GaussianRational(*zero) if isinstance(zero, tuple) else zero
    theirs_zero = ref.GaussianRational(*zero) if isinstance(zero, tuple) else zero
    for p in ((3, 0), (0, 2), (1, -1), (0, 0)):
        ours = outcome(GaussianRational(*p).__truediv__, ours_zero)
        theirs = outcome(ref.GaussianRational(*p).__truediv__, theirs_zero)
        assert ours == theirs == (ZeroDivisionError, "division by zero GaussianRational")
    assert outcome(GaussianRational(0).__rtruediv__, 5) == \
        outcome(ref.GaussianRational(0).__rtruediv__, 5)


def test_entry_views_equal_entries_built_by_the_constructor():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parts, _ = _strategies(st)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 4), st.integers(0, 4), st.data())
    def check(rows, cols, data):
        ps = data.draw(st.lists(parts, min_size=rows * cols, max_size=rows * cols))
        m = Mat(rows, cols, [GaussianRational(*p) for p in ps])
        view = m.transpose().transpose()        # int rows only: entries built on read
        assert view._entries is None
        for i in range(rows):
            for j in range(cols):
                assert_exact(view[i, j], ref.GaussianRational(*ps[i * cols + j]))
        for x, p in zip(m.scale(2).entries, ps):
            assert_exact(x, ref.GaussianRational(*p) * 2)
    check()


@pytest.mark.parametrize("data", ["3/4", 5, -2, {"re": "1/2", "im": "-2/3"}, {"re": 7},
                                  {"im": "2"}, {}, "0", 0])
def test_document_scalars_match_reference(data):
    assert_exact(GaussianRational.from_json(data), ref.GaussianRational.from_json(data))


@pytest.mark.parametrize("data", [True, False, {"re": True}, {"re": "1", "im": False}])
def test_document_booleans_are_refused(data):
    with pytest.raises(TypeError, match="cannot interpret (true|false)"):
        GaussianRational.from_json(data)


def test_library_inputs_still_coerce_booleans():
    assert GaussianRational(True, False) == GaussianRational(1)
