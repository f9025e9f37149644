"""Truncated power series and Laurent series in the formal parameter h.

``HSeries`` is a plain truncation: coefficients for orders 0..N over any
additive coefficient type (polynomials, enveloping elements, tensors).
``HLaurent`` additionally carries a valuation (possibly negative) and an
explicit certified top order, so that products of rescaled objects keep
honest precision bookkeeping.  Coefficient types must support +, -, unary
minus and be falsy exactly when zero (or expose ``is_zero``).
"""

from .errors import ConfigError, NonIntegralError, NotAUnitError

__all__ = [
    "HSeries", "hs_const", "hs_zero", "hseries_mul", "hseries_invert",
    "HLaurent", "laurent_normalize",
]


def _is_zero(t):
    probe = getattr(t, "is_zero", None)
    if probe is not None:
        return probe()
    return not t


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

    def coeff(self, n):
        return self.coeffs[n]

    def is_zero(self):
        return all(_is_zero(c) for c in self.coeffs)

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

    def __neg__(self):
        return HSeries(self.order, [-c for c in self.coeffs], self.zero)

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
        return isinstance(other, HSeries) and self.order == other.order \
            and all((a - b).is_zero() if hasattr(a, "is_zero") else a == b
                    for a, b in zip(self.coeffs, other.coeffs))

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
            if _is_zero(ai) or _is_zero(bj):
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
    if _is_zero(a.coeffs[0]):
        raise NotAUnitError("leading coefficient is zero")
    inv0 = a0_inv if a0_inv is not None else a.coeffs[0]
    out = [inv0]
    for k in range(1, n + 1):
        acc = a.zero
        for i in range(1, k + 1):
            ai = a.coeffs[i]
            if _is_zero(ai):
                continue
            acc = acc + mul(ai, out[k - i])
        out.append(-mul(inv0, acc))
    result = HSeries(n, out, a.zero)
    check = hseries_mul(a, result, mul)
    if any(not _is_zero(c) for c in check.coeffs[1:]):
        raise NotAUnitError("leading coefficient is not invertible")
    if one is not None and not _is_zero(check.coeffs[0] - one):
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
        return all(_is_zero(c) for c in self.coeffs)

    def normalize(self):
        val, coeffs = self.val, list(self.coeffs)
        while coeffs and _is_zero(coeffs[0]):
            coeffs.pop(0)
            val += 1
        return HLaurent(val, self.top, coeffs, self.zero)

    def shift(self, k):
        """Multiply by h^k (k may be negative)."""
        return HLaurent(self.val + k, self.top + k, self.coeffs, self.zero)

    def _aligned(self, other):
        val = min(self.val, other.val)
        top = min(self.top, other.top)
        if top < val:
            # at least one side is an empty window (zero up to its top)
            val = top + 1
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
        return all(_is_zero(self.coeff(n) - other.coeff(n)) for n in range(lo, hi + 1))

    def __repr__(self):
        return "HLaurent[v=%d,t=%d: %s]" % (
            self.val, self.top, ", ".join(str(c) for c in self.coeffs))


def laurent_mul(x, y, mulser, series_order):
    """Product of Laurent values whose coefficients multiply into series.

    ``mulser(a, b)`` returns the h-expansion (list of coefficients for
    orders 0..series_order) of the product of two plain coefficients; for
    an ordinary commutative coefficient ring pass lambda a, b: [a*b] + zeros.
    """
    val = x.val + y.val
    top = min(x.top + y.val, y.top + x.val, series_order + x.val + y.val)
    if top < val:
        raise ConfigError("laurent product has empty certified window")
    out = [x.zero] * (top - val + 1)
    for i, xi in enumerate(x.coeffs, x.val):
        if _is_zero(xi):
            continue
        for j, yj in enumerate(y.coeffs, y.val):
            if i + j > top:
                break
            if _is_zero(yj):
                continue
            for n, c in enumerate(mulser(xi, yj), i + j):
                if n > top:
                    break
                if not _is_zero(c):
                    out[n - val] = out[n - val] + c
    return HLaurent(val, top, out, x.zero)


def laurent_normalize(a, demand_integral=False):
    """Canonical form (leading zeros stripped).  Idempotent.

    With ``demand_integral`` the result must have valuation >= 0; a
    negative valuation raises NonIntegralError carrying the offending order.
    """
    norm = a.normalize()
    if demand_integral and norm.val < 0 and norm.coeffs:
        raise NonIntegralError(norm.val)
    return norm
