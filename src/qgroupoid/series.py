"""Truncated power series and Laurent series in the formal parameter h.

``HSeries`` is a plain truncation: coefficients for orders 0..N over any
additive coefficient type (polynomials, enveloping elements, tensors).
``HLaurent`` additionally carries a valuation (possibly negative) and an
explicit certified top order, so that products of rescaled objects keep
honest precision bookkeeping.  Coefficient types must support +, -, unary
minus and be falsy exactly when zero (or expose ``is_zero``).

A long sum of Laurent values over polynomial coefficients (the jet
pairings, the star product) goes through one ``LaurentSum``: it keeps a
{exponent: coefficient} row per h-order and the window, and builds each
``CPoly`` and the ``HLaurent`` once, where a chain of ``+`` would build a
whole series per term.
"""

from .errors import ConfigError, NotAUnitError
from .scalars import CPoly

__all__ = [
    "HSeries", "hs_const", "hs_zero", "hseries_mul", "hseries_invert",
    "HLaurent", "LaurentSum",
]


class HSeries:
    """Coefficients t0..tN; arithmetic discards all orders above N."""

    __slots__ = ("order", "coeffs", "zero")

    def __init__(self, order, coeffs, zero):
        if len(coeffs) != order + 1:
            raise ConfigError("series needs exactly %d coefficients" % (order + 1))
        self.order = order
        self.coeffs = tuple(coeffs)
        self.zero = zero

    def _check(self, other):
        if self.order != other.order:
            raise ConfigError("mixed truncation orders %d and %d"
                              % (self.order, other.order))

    def __add__(self, other):
        self._check(other)
        return HSeries(self.order,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)],
                       self.zero)

    def __sub__(self, other):
        self._check(other)
        return HSeries(self.order,
                       [a - b for a, b in zip(self.coeffs, other.coeffs)],
                       self.zero)

    def shift(self, k):
        """Multiply by h^k (k >= 0), truncating at the top."""
        if k < 0:
            raise ConfigError("use HLaurent for negative h-powers")
        n = self.order
        return HSeries(n, (self.zero,) * min(k, n + 1) + self.coeffs[:max(n + 1 - k, 0)],
                       self.zero)

    def map(self, f):
        # f must be linear; it is applied to the zero element as well so
        # that shape-changing maps (leg embeddings) keep the zero in type.
        return HSeries(self.order, [f(c) for c in self.coeffs], f(self.zero))

    def __eq__(self, other):
        # every coefficient type compares by value with ==: zero-free term
        # dicts (CPoly, EnvElement) or cross-multiplied numerators
        # (TensorElement), so no difference is built
        return isinstance(other, HSeries) and self.order == other.order \
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return "HSeries[%s]" % ", ".join(str(c) for c in self.coeffs)


def hs_zero(order, zero):
    return HSeries(order, (zero,) * (order + 1), zero)


def hs_const(t0, order, zero):
    return HSeries(order, (t0,) + (zero,) * order, zero)


def hseries_mul(a, b, mul):
    """Cauchy product under truncation; ``mul`` is the bilinear product on T."""
    a._check(b)
    n = a.order
    out = []
    for k in range(n + 1):
        acc = a.zero
        for i in range(k + 1):
            ai, bj = a.coeffs[i], b.coeffs[k - i]
            if ai.is_zero() or bj.is_zero():
                continue
            acc = acc + mul(ai, bj)
        out.append(acc)
    return HSeries(n, out, a.zero)


def hseries_invert(a, mul, a0_inv=None, one=None):
    """Two-sided inverse up to order N.

    ``a0_inv`` inverts the leading coefficient (defaults to the leading
    coefficient itself, for unit-like leads).  The result is checked by
    multiplying back; pass ``one`` to also pin the order-0 value.
    """
    n = a.order
    if a.coeffs[0].is_zero():
        raise NotAUnitError("leading coefficient is zero")
    inv0 = a0_inv if a0_inv is not None else a.coeffs[0]
    out = [inv0]
    for k in range(1, n + 1):
        acc = a.zero
        for i in range(1, k + 1):
            ai = a.coeffs[i]
            if ai.is_zero():
                continue
            acc = acc + mul(ai, out[k - i])
        out.append(-mul(inv0, acc))
    result = HSeries(n, out, a.zero)
    check = hseries_mul(a, result, mul)
    if any(not c.is_zero() for c in check.coeffs[1:]):
        raise NotAUnitError("leading coefficient is not invertible")
    if one is not None and not (check.coeffs[0] - one).is_zero():
        raise NotAUnitError("a0_inv does not invert the leading coefficient")
    return result


class HLaurent:
    """Laurent-truncated series: coefficients for orders val..top.

    ``top`` is the highest order the value is certified at; operations
    propagate it so that h^-n rescalings lose precision honestly.
    """

    __slots__ = ("val", "top", "coeffs", "zero")

    def __init__(self, val, top, coeffs, zero):
        if len(coeffs) != top - val + 1:
            raise ConfigError("laurent window size mismatch")
        self.val = val
        self.top = top
        self.coeffs = tuple(coeffs)
        self.zero = zero

    @classmethod
    def from_hseries(cls, s):
        return cls(0, s.order, s.coeffs, s.zero)

    @classmethod
    def const(cls, t0, top, zero):
        return cls(0, top, (t0,) + (zero,) * top, zero)

    @classmethod
    def zero_upto(cls, top, zero):
        return cls(top + 1, top, (), zero)

    def coeff(self, n):
        if n < self.val or n > self.top:
            return self.zero
        return self.coeffs[n - self.val]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def valuation(self):
        """The lowest order with a nonzero coefficient; None for zero."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return self.val + k
        return None

    def shift(self, k):
        """Multiply by h^k (k may be negative)."""
        return HLaurent(self.val + k, self.top + k, self.coeffs, self.zero)

    def _aligned(self, other):
        val = min(self.val, other.val)
        top = min(self.top, other.top)
        a = [self.coeff(n) for n in range(val, top + 1)]
        b = [other.coeff(n) for n in range(val, top + 1)]
        return val, top, a, b

    def __add__(self, other):
        val, top, a, b = self._aligned(other)
        return HLaurent(val, top, [x + y for x, y in zip(a, b)], self.zero)

    def __sub__(self, other):
        val, top, a, b = self._aligned(other)
        return HLaurent(val, top, [x - y for x, y in zip(a, b)], self.zero)

    def __neg__(self):
        return HLaurent(self.val, self.top, [-c for c in self.coeffs], self.zero)

    def map(self, f):
        return HLaurent(self.val, self.top, [f(c) for c in self.coeffs],
                        f(self.zero))

    def eq_to_order(self, other):
        lo = min(self.val, other.val)
        hi = min(self.top, other.top)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, hi + 1))

    def __repr__(self):
        return "HLaurent[v=%d,t=%d: %s]" % (
            self.val, self.top, ", ".join(str(c) for c in self.coeffs))


class LaurentSum:
    """An in-place sum of Laurent values with ``CPoly`` coefficients.

    The value equals the chain ``start + p1 + p2 + ...`` of
    ``HLaurent.__add__``, window included: ``val`` is the lowest valuation
    and ``top`` the lowest top over the start and every piece, and orders
    above ``top`` are dropped.  A window never has val > top + 1, so when
    the two cross the result is the empty window val = top + 1.  ``start``
    is ``zero_upto(top)``; without a top there is no start, and ``value``
    must not be read before a piece is added.
    """

    __slots__ = ("zero", "val", "top", "rows")

    def __init__(self, zero, top=None):
        self.zero = zero
        self.top = top
        self.val = None if top is None else top + 1
        self.rows = {}  # h-order -> {exponent: coefficient}, no zero entries

    def _narrow(self, val, top):
        """Lower the valuation and the top to a piece's where they are
        lower; returns the top, above which nothing is written."""
        if self.top is None or top < self.top:
            self.top = top
        if self.val is None or val < self.val:
            self.val = val
        return self.top

    def add(self, x, c=1, k=0):
        """Add c * h^k * x for a Laurent value x."""
        top = self._narrow(x.val + k, x.top + k)
        if not c:
            return
        scaled = c != 1
        for n, p in enumerate(x.coeffs, x.val + k):
            if n > top:
                break
            if p.terms:
                _add_terms(self.rows, n, p.terms, c if scaled else None)

    def add_product(self, x, y, mulser, series_order):
        """Add the product of x and y, whose coefficients ``a``, ``b``
        multiply into the h-expansion ``mulser(a, b)`` (a list of CPoly
        for orders 0..series_order)."""
        val = x.val + y.val
        top = min(x.top + y.val, y.top + x.val, series_order + val)
        if top < val:
            raise ConfigError("laurent product has empty certified window")
        top = self._narrow(val, top)
        rows = self.rows
        for i, xi in enumerate(x.coeffs, x.val):
            if not xi.terms:
                continue
            for j, yj in enumerate(y.coeffs, y.val):
                if i + j > top:
                    break
                if not yj.terms:
                    continue
                for n, c in enumerate(mulser(xi, yj), i + j):
                    if n > top:
                        break
                    if c.terms:
                        _add_terms(rows, n, c.terms, None)

    def value(self):
        """The sum as an ``HLaurent``."""
        rows, zero = self.rows, self.zero
        coeffs = []
        for n in range(self.val, self.top + 1):
            row = rows.get(n)
            coeffs.append(CPoly(zero.nvars, row) if row else zero)
        return HLaurent(self.val, self.top, coeffs, zero)


def _add_terms(rows, n, terms, c):
    """rows[n] += c * terms in place (c None: unscaled), dropping entries
    that cancel."""
    row = rows.get(n)
    if row is None:
        rows[n] = dict(terms) if c is None \
            else {e: v * c for e, v in terms.items()}
        return
    for e, v in terms.items():
        if c is not None:
            v = v * c
        cur = row.get(e)
        if cur is None:
            row[e] = v
        else:
            s = cur + v
            if s:
                row[e] = s
            else:
                del row[e]


def laurent_mul(x, y, mulser, series_order):
    """Product of Laurent values whose coefficients multiply into series.

    The coefficients are ``CPoly``; ``mulser(a, b)`` returns the
    h-expansion (list of CPoly for orders 0..series_order) of the product
    of two of them, for the plain product pass lambda a, b: [a * b].  The
    terms are written into the per-order rows of one ``LaurentSum``.
    """
    acc = LaurentSum(x.zero)
    acc.add_product(x, y, mulser, series_order)
    return acc.value()
