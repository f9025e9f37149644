import itertools
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qgroupoid.errors import ParseError
from qgroupoid.scalars import CPoly, monomials_upto, parse_poly, pbw_indices


def P(s, nvars=2):
    return parse_poly(s, nvars)


def power(p, n):
    """p^n by repeated multiplication."""
    out = CPoly.one(p.nvars)
    for _ in range(n):
        out = out * p
    return out


def test_parse_basic():
    p = P("3/2*x1^2*x2")
    assert p.terms == {(2, 1): Fraction(3, 2)}
    assert P("x1 + x2 - x1") == P("x2")
    assert P("2*x1*x1") == P("2*x1^2")
    assert P("-x1 + 4") == CPoly.const(2, 4) - CPoly.var(2, 0)


def test_parse_errors():
    with pytest.raises(ParseError):
        P("")
    with pytest.raises(ParseError):
        P("x3")
    with pytest.raises(ParseError):
        P("x1 +")
    with pytest.raises(ParseError):
        P("1.5*x1")


def test_diff():
    p = P("x1^3*x2 + 2*x2")
    assert p.diff(0) == P("3*x1^2*x2")
    assert p.diff(1) == P("x1^3 + 2")


def test_pow_and_const():
    x = CPoly.var(2, 0)
    assert power(x + 1, 2) == P("x1^2 + 2*x1 + 1")
    assert power(x, 0) == CPoly.one(2)


def test_monomials_upto():
    ms = monomials_upto(2, 2)
    assert len(ms) == 6
    assert ms[0] == CPoly.one(2)
    assert all(sum(e) <= 2 for m in ms for e in m.terms)


def _rand_poly(draw_terms):
    out = CPoly.zero(2)
    for (e1, e2, num, den) in draw_terms:
        out = out + CPoly.monomial(2, (e1, e2), Fraction(num, den))
    return out


poly_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3),
              st.integers(-9, 9), st.integers(1, 9)),
    max_size=4).map(_rand_poly)


@settings(max_examples=60, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(poly_strategy, poly_strategy)
def test_leibniz_rule(a, b):
    assert (a * b).diff(0) == a.diff(0) * b + a * b.diff(0)


def product_pbw_indices(n, d):
    """Every tuple of range(d + 1)^n with sum <= d, sorted by (sum, tuple):
    the oracle that walks the whole cube."""
    out = [a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d]
    out.sort(key=lambda a: (sum(a), a))
    return out


def test_pbw_indices_match_the_product_form():
    for n in range(6):
        for d in range(6):
            assert pbw_indices(n, d) == product_pbw_indices(n, d)


def test_pbw_indices_cost_is_polynomial_in_the_rank():
    # the cube range(5)^12 holds 244,140,625 tuples
    start = time.perf_counter()
    idx = pbw_indices(12, 4)
    assert time.perf_counter() - start < 1
    assert len(idx) == comb(16, 4) == 1820
