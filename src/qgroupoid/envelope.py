"""Enveloping algebra of a Lie-Rinehart structure, in PBW normal form.

An ``EnvElement`` is a sparse map from multi-indices alpha to polynomial
coefficients, standing for sum_alpha a_alpha e^alpha with the coefficient
on the left and e^alpha = e_1^a1 ... e_m^am in fixed generator order.
Multiplication rewrites e_i a -> a e_i + anchor(e_i)(a) and
e_j e_i -> e_i e_j - [e_i, e_j] (j > i) until normal; rewriting terminates
because every step lowers (total degree, inversion count) lexicographically.
"""

from .errors import ConfigError
from .scalars import CPoly, Fraction

__all__ = [
    "EnvElement", "pbw_mul", "monomial_product", "monomial_action",
    "env_counit", "anchor_action",
]


class EnvElement:
    """Normal-form element: {multi-index alpha: CPoly coefficient}."""

    __slots__ = ("nvars", "rank", "terms", "_hash")

    def __init__(self, nvars, rank, terms=None):
        self.nvars = nvars
        self.rank = rank
        self.terms = {a: c for a, c in (terms or {}).items() if not c.is_zero()}
        self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars, rank):
        return cls(nvars, rank)

    @classmethod
    def one(cls, nvars, rank):
        return cls(nvars, rank, {(0,) * rank: CPoly.one(nvars)})

    @classmethod
    def from_poly(cls, rank, poly):
        return cls(poly.nvars, rank, {(0,) * rank: poly})

    @classmethod
    def gen(cls, nvars, rank, i, power=1):
        alpha = [0] * rank
        alpha[i] = power
        return cls(nvars, rank, {tuple(alpha): CPoly.one(nvars)})

    @classmethod
    def monomial(cls, nvars, rank, alpha, coeff=None):
        coeff = coeff if coeff is not None else CPoly.one(nvars)
        return cls(nvars, rank, {tuple(alpha): coeff})

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def scale(self, poly):
        """Left multiplication by a coefficient (polynomial or rational)."""
        if isinstance(poly, (int, Fraction)):
            poly = CPoly.const(self.nvars, poly)
        return EnvElement(self.nvars, self.rank,
                          {a: poly * c for a, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for a, c in other.terms.items():
            cur = out.get(a)
            out[a] = c if cur is None else cur + c
        return EnvElement(self.nvars, self.rank, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return EnvElement(self.nvars, self.rank,
                          {a: -c for a, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, EnvElement) and self.terms == other.terms

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items(),
                                           key=lambda kv: kv[0])))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            word = "".join("e%d^%d" % (i + 1, k) if k > 1 else "e%d" % (i + 1)
                           for i, k in enumerate(alpha) if k)
            c = str(self.terms[alpha])
            parts.append("(%s)%s" % (c, word) if word else "(%s)" % c)
        return " + ".join(parts)


def _bump(alpha, i, by=1):
    out = list(alpha)
    out[i] += by
    return tuple(out)


def _last_nonzero(alpha):
    for j in range(len(alpha) - 1, -1, -1):
        if alpha[j]:
            return j
    return None


def _first_nonzero(alpha):
    for j, a in enumerate(alpha):
        if a:
            return j
    return None


# -- left normal form ----------------------------------------------------------
#
# Every product goes through one table on the structure, keyed by
# (alpha, gamma, beta) and holding the normal form of e^alpha x^gamma e^beta.
# An entry is built by peeling the last generator e_j off e^alpha:
#
#   e^alpha x^gamma e^beta = e^(alpha - e_j) (e_j x^gamma e^beta),
#   e_j x^gamma e^beta     = x^gamma (e_j e^beta) + anchor(e_j)(x^gamma) e^beta,
#   e_j e^beta             = e_i (e_j e^(beta - e_i)) - [e_i, e_j] e^(beta - e_i)
#
# where i < j is the first generator of e^beta; the last line is the only
# rewriting step, and it stops once e_j sorts before e^beta.


def monomial_product(spec, alpha, gamma, beta):
    """Normal form of e^alpha * x^gamma * e^beta (the structure's table)."""
    table = spec._mono_table
    key = (alpha, gamma, beta)
    hit = table.get(key)
    if hit is not None:
        return hit
    nvars, rank = spec.nvars, spec.rank
    j = _last_nonzero(alpha)
    if j is None:
        res = EnvElement(nvars, rank, {beta: CPoly.monomial(nvars, gamma)})
    elif sum(alpha) > 1:
        head = _bump(alpha, j, -1)
        tail = monomial_product(spec, _bump((0,) * rank, j), gamma, beta)
        res = EnvElement(nvars, rank, _mul_terms(spec, {head: CPoly.one(nvars)},
                                                 tail.terms))
    elif any(gamma):
        res = monomial_product(spec, alpha, (0,) * nvars, beta).scale(
            CPoly.monomial(nvars, gamma))
        res = res + EnvElement(
            nvars, rank, {beta: monomial_action(spec, alpha, gamma)})
    else:
        i = _first_nonzero(beta)
        if i is None or j <= i:
            res = EnvElement(nvars, rank, {_bump(beta, j): CPoly.one(nvars)})
        else:
            rest = _bump(beta, i, -1)
            zeros = (0,) * nvars
            terms = _mul_terms(spec, {_bump((0,) * rank, i): CPoly.one(nvars)},
                               monomial_product(spec, alpha, zeros, rest).terms)
            for k, c in enumerate(spec.bracket_basis(i, j)):
                if not c.is_zero():
                    _acc_elem(terms, monomial_product(
                        spec, _bump((0,) * rank, k), zeros, rest), -c)
            res = EnvElement(nvars, rank, terms)
    table[key] = res
    return res


# -- anchor action -----------------------------------------------------------
#
# e^alpha acts on the base by composing anchors, the last generator first.
# The structure's second table holds e^alpha acting on the monomial x^gamma,
# built by peeling the first generator e_i off e^alpha:
#
#   e^alpha . x^gamma = anchor(e_i)(e^(alpha - e_i) . x^gamma).
#
# Every anchor chain reads this table; a polynomial acts by linearity.


def monomial_action(spec, alpha, gamma):
    """e^alpha acting on x^gamma through the anchor (the structure's table)."""
    table = spec._act_table
    key = (alpha, gamma)
    hit = table.get(key)
    if hit is not None:
        return hit
    i = _first_nonzero(alpha)
    if i is None:
        res = CPoly.monomial(spec.nvars, gamma)
    else:
        res = monomial_action(spec, _bump(alpha, i, -1), gamma)
        if not res.is_zero():
            res = spec.anchor_apply(i, res)
    table[key] = res
    return res


def _acc_elem(out, w, coeff):
    """out += coeff * w for a normal form w and a polynomial coeff."""
    for delta, c in w.terms.items():
        cur = out.get(delta)
        out[delta] = coeff * c if cur is None else cur + coeff * c


def _mul_terms(spec, uterms, vterms):
    """Term dict of the product of two normal forms given by their terms."""
    out = {}
    for beta, b in vterms.items():
        for gamma, q in b.terms.items():
            for alpha, a in uterms.items():
                _acc_elem(out, monomial_product(spec, alpha, gamma, beta),
                          a if q == 1 else a * q)
    return out


def pbw_mul(spec, u, v):
    """Associative product in PBW normal form."""
    if u.rank != v.rank or u.nvars != v.nvars:
        raise ConfigError("operands over different structures")
    return EnvElement(spec.nvars, spec.rank, _mul_terms(spec, u.terms, v.terms))


def env_counit(u):
    """Coefficient at alpha = 0 of the normal form."""
    return u.terms.get((0,) * u.rank, CPoly.zero(u.nvars))


def anchor_action(spec, u, a):
    """u acting on the base: counit(u * a), read from the action table."""
    out = CPoly.zero(spec.nvars)
    for beta, c in u.terms.items():
        for gamma, q in a.terms.items():
            val = monomial_action(spec, beta, gamma)
            if not val.is_zero():
                out = out + c * val * q
    return out

