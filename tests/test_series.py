import random
from fractions import Fraction
from math import factorial

import pytest

from qgroupoid.errors import ConfigError, NotAUnitError
from qgroupoid.scalars import CPoly
from qgroupoid.series import (
    HLaurent, HSeries, LaurentSum, hs_const, hseries_invert, hseries_mul,
    laurent_mul,
)

ZERO = CPoly.zero(1)
ONE = CPoly.one(1)
X = CPoly.var(1, 0)


def S(coeffs, order=None):
    order = order if order is not None else len(coeffs) - 1
    coeffs = list(coeffs) + [ZERO] * (order + 1 - len(coeffs))
    return HSeries(order, coeffs, ZERO)


def mul(a, b):
    return a * b


def power(p, n):
    """p^n by repeated multiplication."""
    out = CPoly.one(p.nvars)
    for _ in range(n):
        out = out * p
    return out


def test_mul_difference_of_squares():
    a = S([ONE, ONE, ZERO])            # 1 + h
    b = S([ONE, -ONE, ZERO])           # 1 - h
    assert hseries_mul(a, b, mul) == S([ONE, ZERO, -ONE])


def test_mul_identity():
    t = S([X, ONE, X * X])
    one = hs_const(ONE, 2, ZERO)
    assert hseries_mul(one, t, mul) == t
    assert hseries_mul(t, one, mul) == t


def test_exp_times_exp_inverse():
    # exp(h r) * exp(-h r) == 1 at N=3; expected coefficients computed
    # independently from the binomial identity sum_{i+j=n} (-1)^j/(i! j!) = 0.
    N = 3
    r = X
    for n in range(1, N + 1):
        acc = Fraction(0)
        for i in range(n + 1):
            acc += Fraction((-1) ** (n - i), factorial(i) * factorial(n - i))
        assert acc == 0
    e_plus = S([power(r, n) * Fraction(1, factorial(n)) for n in range(N + 1)])
    e_minus = S([power(r, n) * Fraction((-1) ** n, factorial(n))
                 for n in range(N + 1)])
    assert hseries_mul(e_plus, e_minus, mul) == hs_const(ONE, N, ZERO)


def test_mixed_orders_rejected():
    with pytest.raises(ConfigError):
        hseries_mul(S([ONE, ZERO]), S([ONE, ZERO, ZERO]), mul)


def test_invert_geometric():
    a = S([ONE, -ONE, ZERO])           # 1 - h
    inv = hseries_invert(a, mul, a0_inv=ONE, one=ONE)
    assert inv == S([ONE, ONE, ONE])   # 1 + h + h^2
    assert hseries_invert(hs_const(ONE, 2, ZERO), mul, one=ONE) == hs_const(ONE, 2, ZERO)


def test_invert_nonunit():
    a = S([ZERO, ONE, ZERO])
    with pytest.raises(NotAUnitError):
        hseries_invert(a, mul)
    b = S([X, ONE, ZERO])              # leading coefficient x is not a unit
    with pytest.raises(NotAUnitError):
        hseries_invert(b, mul, a0_inv=ONE, one=ONE)


def test_invert_two_sided_on_samples():
    for coeffs in ([ONE, X, ZERO, ONE], [ONE, ZERO, X * X, ZERO]):
        a = S(coeffs)
        inv = hseries_invert(a, mul, a0_inv=ONE, one=ONE)
        n = a.order
        assert hseries_mul(a, inv, mul) == hs_const(ONE, n, ZERO)
        assert hseries_mul(inv, a, mul) == hs_const(ONE, n, ZERO)


def test_shift_truncates():
    t = S([ONE, X, ZERO])
    assert t.shift(1) == S([ZERO, ONE, X])
    assert all(c.is_zero() for c in t.shift(4).coeffs)


# -- Laurent ----------------------------------------------------------------


def lmul(x, y):
    return laurent_mul(x, y, lambda a, b: [a * b], 4)


def test_laurent_normalize_strips():
    a = HLaurent(-1, 3, [ZERO, X, ZERO, ONE, ZERO], ZERO)
    n = a.normalize()
    assert (n.val, n.top) == (0, 3)
    assert n.normalize() == n or n.eq_to_order(n.normalize())


def test_laurent_normalize_idempotent():
    a = HLaurent(-2, 2, [ZERO, ZERO, ONE, X, ZERO], ZERO)
    once = a.normalize()
    twice = once.normalize()
    assert (once.val, once.top, once.coeffs) == (twice.val, twice.top, twice.coeffs)


def _summed(pieces):
    acc = LaurentSum(ZERO)
    for x, c, k in pieces:
        acc.add(x, c, k)
    v = acc.value()
    return v.val, v.top, [dict(p.terms) for p in v.coeffs]


@pytest.mark.parametrize("narrowing, window", [
    ([], (0, 4)),
    ([(HLaurent.zero_upto(2, ZERO), Fraction(5, 3), 1),
      (HLaurent(-2, 5, [ZERO] * 8, ZERO), 1, 0)], (-2, 3)),
    ([(HLaurent.zero_upto(-1, ZERO), 1, 2)], (0, 1)),
    ([(HLaurent.zero_upto(-3, ZERO), 0, 2)], (0, -1)),
    ([(HLaurent.zero_upto(-4, ZERO), 1, 1)], (-2, -3)),
], ids=["no-empty-window", "lower-top-and-val", "lower-top",
        "to-the-empty-window", "below-the-valuation"])
def test_laurent_sum_ignores_the_order_of_its_pieces(narrowing, window):
    """A ``LaurentSum`` gives the same value and window, val and top, for
    every seeded permutation of its pieces: nonzero pieces, pieces that
    cancel, scaled and shifted pieces, and empty windows that lower the
    top or the valuation.  The one-pass dual product (``jets.jet_product``)
    adds the pieces of an index in the order of the transpose, its zero
    pieces last, which is not the order of the lift."""
    a = HLaurent(0, 4, [ONE, X, ZERO, X * X, ONE], ZERO)
    b = HLaurent(-1, 3, [X, ZERO, ONE, ZERO, X], ZERO)
    pieces = [
        (a, 1, 0), (a, -1, 0),                # cancel whole
        (b, Fraction(3, 2), 1), (b, Fraction(-3, 2), 1), (b, 2, 1),
        (HLaurent(1, 2, [X, ONE], ZERO), Fraction(-2, 7), 2),
        (HLaurent(0, 5, [ZERO, X, ONE, ZERO, ZERO, X], ZERO), 1, 0),
        (HLaurent(0, 4, [ZERO, -X, ZERO, ZERO, ZERO], ZERO), 1, 1),
    ] + narrowing
    want = _summed(pieces)
    rng = random.Random(20)
    for _ in range(40):
        rng.shuffle(pieces)
        assert _summed(pieces) == want
    val, top, coeffs = want
    assert (val, top) == window
    full = {0: X * 2, 1: X, 2: ONE * 3 - X, 3: X * Fraction(-2, 7),
            4: X * 2 - ONE * Fraction(2, 7)}
    assert coeffs == [dict(full.get(n, ZERO).terms) for n in range(val, top + 1)]


def test_laurent_integrality():
    # h^-1 * (h u) -> u, valuation 0
    u = HLaurent(0, 4, [X, ONE, ZERO, ZERO, ZERO], ZERO)
    a = u.shift(1).shift(-1)
    assert a.normalize().val == 0
    # h^-1 u with u0 != 0 keeps its negative valuation
    b = u.shift(-1)
    assert b.normalize().val == -1


def test_laurent_mul_precision():
    x = HLaurent(-1, 3, [ONE, ZERO, ZERO, ZERO, ZERO], ZERO)   # h^-1
    y = HLaurent(0, 4, [ONE, X, ZERO, ZERO, ZERO], ZERO)       # 1 + h x
    z = lmul(x, y)
    assert z.val == -1
    assert z.top == 3      # one order of precision spent on the rescaling
    assert z.coeff(-1) == ONE
    assert z.coeff(0) == X


# -- equality by value, without differences ------------------------------------------


def subtraction_eq(a, b):
    """The relation ``==`` stands for: equal orders and every coefficient
    difference zero."""
    return a.order == b.order and all((x - y).is_zero()
                                      for x, y in zip(a.coeffs, b.coeffs))


def subtraction_eq_to_order(a, b):
    lo, hi = min(a.val, b.val), min(a.top, b.top)
    return all((a.coeff(n) - b.coeff(n)).is_zero() for n in range(lo, hi + 1))


def equality_fixtures():
    """Lists of series over one coefficient type each, built so that some
    pairs are equal in value through different constructions."""
    from qgroupoid.envelope import EnvElement
    from qgroupoid.tensorspace import TensorElement
    half = Fraction(1, 2)
    polys = [S([X, ONE, ZERO]), S([X, ONE]), S([X + ONE - ONE, ONE, X - X]),
             S([X, ONE, X * half]), S([ZERO, ZERO, ZERO]), S([X, ONE], 3)]
    e0, e1 = EnvElement.one(1, 2), EnvElement.gen(1, 2, 0)
    x_e1 = EnvElement.monomial(1, 2, (1, 0), X)
    ezero = EnvElement.zero(1, 2)

    def E(coeffs, order=2):
        coeffs = list(coeffs) + [ezero] * (order + 1 - len(coeffs))
        return HSeries(order, coeffs, ezero)

    envs = [E([e1, x_e1]), E([e1 + x_e1 - x_e1, x_e1]), E([e1, x_e1.scale(2)]),
            E([x_e1, e1]), E([]), E([e0 - e0]), E([e1, x_e1], 3)]
    t = TensorElement.of(e1, x_e1).scale(half)
    t2 = t.scale(Fraction(2)).scale(half)      # the same value over 2 den
    u = TensorElement.of(x_e1, e0).scale(Fraction(1, 3))
    tzero = TensorElement.zero(1, 2, 2)

    def T(coeffs, order=1):
        coeffs = list(coeffs) + [tzero] * (order + 1 - len(coeffs))
        return HSeries(order, coeffs, tzero)

    assert t.den != t2.den and t2.num != t.num
    tensors = [T([t, u]), T([t2, u]), T([t2, u + u]), T([u, t]), T([]),
               T([t - t2]), T([t, u], 2)]
    return [polys, envs, tensors]


def test_series_equality_matches_differences():
    seen = set()
    for series in equality_fixtures():
        for a in series:
            for b in series:
                want = subtraction_eq(a, b)
                assert (a == b) == want
                seen.add(want)
    assert seen == {True, False}


def test_eq_to_order_matches_differences():
    half = Fraction(1, 2)
    values = [HLaurent(0, 2, [X, ONE, ZERO], ZERO),
              HLaurent(-1, 2, [ZERO, X, ONE, ZERO], ZERO),
              HLaurent(0, 1, [X, ONE], ZERO),
              HLaurent(0, 2, [X, ONE, X * half], ZERO),
              HLaurent(1, 2, [ONE, ZERO], ZERO),
              HLaurent.zero_upto(2, ZERO), HLaurent(0, 2, [X - X] * 3, ZERO)]
    seen = set()
    for a in values:
        for b in values:
            want = subtraction_eq_to_order(a, b)
            assert a.eq_to_order(b) == want
            seen.add(want)
    assert seen == {True, False}
