"""Exact scalars: rationals and sparse commutative polynomials.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator).  A ``CPoly`` is a polynomial over the rationals in a fixed
number of variables x1..xp, stored as a sparse map from exponent tuples to
coefficients.  Instances are immutable and hashable so they can key caches
throughout the engine.

Lifted tensors (``tensorspace.TensorElement``) do not keep lowest-terms
Fractions internally: they hold integer numerators over one denominator
and give Fractions only through their read-only ``.terms`` view.
"""

import re
from fractions import Fraction

from .errors import ConfigError, ParseError
from .kernel import poly_add, poly_diff, poly_mul, poly_neg, poly_scale, poly_sub

__all__ = ["Fraction", "CPoly", "parse_poly", "pbw_indices", "monomials_upto"]


_ONES = {}  # nvars -> CPoly.one(nvars); safe to share, as a CPoly never changes


class CPoly:
    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = dict(terms) if terms else {}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, nvars, c):
        c = Fraction(c)
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        """The unit, one shared instance per variable count."""
        hit = _ONES.get(nvars)
        if hit is None:
            hit = _ONES[nvars] = cls.const(nvars, 1)
        return hit

    @classmethod
    def var(cls, nvars, j, power=1):
        if not 0 <= j < nvars:
            raise ConfigError("variable index %d out of range" % j)
        exp = [0] * nvars
        exp[j] = power
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, nvars, exp, c=1):
        c = Fraction(c)
        if not c:
            return cls(nvars)
        return cls(nvars, {tuple(exp): c})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ConfigError("polynomials over different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.const(self.nvars, other)
        self._check(other)
        return CPoly(self.nvars, poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly.const(self.nvars, other)
        self._check(other)
        return CPoly(self.nvars, poly_sub(self.terms, other.terms))

    def __neg__(self):
        return CPoly(self.nvars, poly_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if type(other) is not Fraction:
                other = Fraction(other)
            return CPoly(self.nvars, poly_scale(self.terms, other))
        self._check(other)
        return CPoly(self.nvars, poly_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def diff(self, j):
        return CPoly(self.nvars, poly_diff(self.terms, j))

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        return isinstance(other, CPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, tuple(sorted(self.terms.items()))))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exp]
            factors = []
            if c != 1 or not any(exp):
                factors.append(str(c))
            for j, e in enumerate(exp):
                if e == 1:
                    factors.append("x%d" % (j + 1))
                elif e > 1:
                    factors.append("x%d^%d" % (j + 1, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


_TOKEN = re.compile(r"\s*(?:(?P<num>-?\d+(?:/\d+)?)|(?P<var>x\d+)(?:\^(?P<pow>\d+))?)\s*")


def parse_poly(text, nvars, line=0):
    """Parse "3/2*x1^2*x2 - x1 + 4" into a CPoly.

    Terms are separated by + or -; factors within a term by '*'.
    """
    text = text.strip()
    if not text:
        raise ParseError(line, "empty polynomial")
    out = CPoly.zero(nvars)
    # normalize leading sign, then split into signed terms
    chunks = re.split(r"(?<![*^/])\s*([+-])\s*", "+" + text if text[0] not in "+-" else text)
    # chunks like ['', '+', 'term', '-', 'term', ...]: the text starts with
    # a sign, so the first chunk is empty
    it = iter(chunks[1:])
    for sign, term in zip(it, it):
        term = term.strip()
        if not term:
            raise ParseError(line, "dangling sign in %r" % text)
        coeff = Fraction(1) if sign == "+" else Fraction(-1)
        exp = [0] * nvars
        for factor in term.split("*"):
            factor = factor.strip()
            m = _TOKEN.fullmatch(factor)
            if not m:
                raise ParseError(line, "bad factor %r" % factor)
            if m.group("num") is not None:
                try:
                    coeff *= Fraction(m.group("num"))
                except ZeroDivisionError:
                    raise ParseError(line, "zero denominator in %r"
                                     % factor) from None
            else:
                j = int(m.group("var")[1:]) - 1
                if not 0 <= j < nvars:
                    raise ParseError(line, "variable %s out of range" % m.group("var"))
                exp[j] += int(m.group("pow") or 1)
        out = out + CPoly.monomial(nvars, exp, coeff)
    return out


def pbw_indices(n, max_degree):
    """All exponent tuples of length n with sum <= max_degree, sorted by
    (degree, tuple): the PBW indices e^alpha of a rank-n structure or the
    monomials x^gamma of n variables.  Each prefix is extended only by
    the entries its sum leaves room for, so the work is polynomial in n."""
    out = [()]
    for _ in range(n):
        out = [a + (k,) for a in out for k in range(max_degree - sum(a) + 1)]
    out.sort(key=lambda a: (sum(a), a))
    return out


def monomials_upto(nvars, max_degree):
    """All monomials x^gamma with |gamma| <= max_degree, as CPoly, sorted."""
    return [CPoly.monomial(nvars, e) for e in pbw_indices(nvars, max_degree)]
