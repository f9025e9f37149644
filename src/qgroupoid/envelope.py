"""Enveloping algebra of a Lie-Rinehart structure, in PBW normal form.

An ``EnvElement`` is a sparse map from multi-indices alpha to polynomial
coefficients, standing for sum_alpha a_alpha e^alpha with the coefficient
on the left and e^alpha = e_1^a1 ... e_m^am in fixed generator order.
Multiplication rewrites e_i a -> a e_i + anchor(e_i)(a) and
e_j e_i -> e_i e_j - [e_i, e_j] (j > i) until normal; rewriting terminates
because every step lowers (total degree, inversion count) lexicographically.
The rewriting runs once per pair of basis monomials x^gamma e^alpha, into
the structure's one product table (``leg_product``), which every product
of the engine reads: ``pbw_mul`` here, the tensor product, reduction and
decompositions of ``tensorspace`` and ``deform``, and the jet pairings of
``jets``, which pair a functional with a product read from the table
without building it.  The table is keyed by the monomials' interned ids
(``leg_id``): every basis monomial (gamma, alpha) gets a small int the
first time it is seen, so a lookup hashes a pair of ints instead of
nested exponent tuples.  The anchor action
reads a second table, of e^alpha acting on x^gamma: ``basis_action`` is
a basis monomial acting on a polynomial, and ``anchor_action`` sums it
over the basis terms of an element.
"""

from operator import add

from .errors import ConfigError
from .scalars import CPoly, Fraction

__all__ = [
    "EnvElement", "pbw_mul", "leg_id", "leg_product", "monomial_action",
    "basis_action", "env_counit", "anchor_action",
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


# -- interned basis monomials -----------------------------------------------------
#
# Every basis monomial (gamma, alpha) gets an int id the first time it is
# seen, in that order, and keeps it for the life of the process.  The
# naming is injective and depends on nothing but the exponent pair, so one
# registry serves every structure and can never go stale.  Ids follow the
# order of first use, which depends on the call order: a result's order
# must never come from sorting ids, only from the monomials (``LEGS[i]``).

_LEG_IDS = {}   # (gamma, alpha) -> id
LEGS = []       # id -> (gamma, alpha)
PURE = []       # id -> the id of (0, alpha)


def leg_id(leg):
    """The interned id of the basis monomial leg = (gamma, alpha)."""
    i = _LEG_IDS.get(leg)
    if i is None:
        gamma, alpha = leg
        pure = leg_id(((0,) * len(gamma), alpha)) if any(gamma) else len(LEGS)
        i = _LEG_IDS[leg] = len(LEGS)
        LEGS.append(leg)
        PURE.append(pure)
    return i


def shift_id(i, mu):
    """The id of x^mu times the monomial with id i."""
    gamma, alpha = LEGS[i]
    return leg_id((tuple(map(add, gamma, mu)), alpha))


# -- the product table -----------------------------------------------------------
#
# By the PBW theorem the monomials x^gamma e^alpha are a basis, so the
# product of two basis monomials fixes every product.  The structure keeps
# these products in one table (``spec._leg_table``), keyed by the ids of
# the two monomials and holding the product as basis terms (id, q), an
# integral q stored as an ``int``.  A left coordinate x^ga only shifts the
# entry of (x^0 e^alpha, x^gamma e^beta), which is built by peeling the last
# generator e_j off e^alpha:
#
#   e^alpha x^gamma e^beta = e^(alpha - e_j) (e_j x^gamma e^beta),
#   e_j x^gamma e^beta     = x^gamma (e_j e^beta) + anchor(e_j)(x^gamma) e^beta,
#   e_j e^beta             = e_i (e_j e^(beta - e_i)) - [e_i, e_j] e^(beta - e_i)
#
# where i < j is the first generator of e^beta; the last line is the only
# rewriting step, and it stops once e_j sorts before e^beta.


def leg_product(spec, ia, ib):
    """Product of the basis monomials with ids ia and ib as a tuple of
    basis terms (id, q), read from the structure's product table and
    filled there."""
    table = spec._leg_table
    key = (ia, ib)
    hit = table.get(key)
    if hit is None:
        ga, aa = LEGS[ia]
        if any(ga):
            hit = tuple((shift_id(i, ga), q)
                        for i, q in leg_product(spec, PURE[ia], ib))
        else:
            hit = _leg_entry(spec, aa, *LEGS[ib])
        table[key] = hit
    return hit


def _leg_entry(spec, alpha, gamma, beta):
    """e^alpha x^gamma e^beta as basis terms, by the rules above."""
    rank = spec.rank
    zeros = (0,) * spec.nvars
    j = _last_nonzero(alpha)
    if j is None:
        return ((leg_id((gamma, beta)), 1),)
    ej = leg_id((zeros, _bump((0,) * rank, j)))
    rows = {}
    if sum(alpha) > 1:
        head = leg_id((zeros, _bump(alpha, j, -1)))
        for w, q in leg_product(spec, ej, leg_id((gamma, beta))):
            _acc_rows(rows, leg_product(spec, head, w), q)
    elif any(gamma):
        _acc_rows(rows, leg_product(spec, ej, leg_id((zeros, beta))), 1, gamma)
        row = rows.setdefault(beta, {})
        for mu, v in monomial_action(spec, alpha, gamma).terms.items():
            _bump_term(row, mu, v)
    else:
        i = _first_nonzero(beta)
        if i is None or j <= i:
            return ((leg_id((zeros, _bump(beta, j))), 1),)
        rest = leg_id((zeros, _bump(beta, i, -1)))
        ei = leg_id((zeros, _bump((0,) * rank, i)))
        for w, q in leg_product(spec, ej, rest):
            _acc_rows(rows, leg_product(spec, ei, w), q)
        for k, c in enumerate(spec.bracket_basis(i, j)):
            if c.terms:
                ek = leg_product(spec, leg_id((zeros, _bump((0,) * rank, k))),
                                 rest)
                for mu, v in c.terms.items():
                    _acc_rows(rows, ek, -v, mu)
    return tuple((leg_id((g, a)), q.numerator if q.denominator == 1 else q)
                 for a, row in rows.items() for g, q in row.items())


def _acc_rows(rows, terms, c, mu=None):
    """rows += c x^mu * terms, rows kept as {alpha: {gamma: q}}."""
    for i, q in terms:
        g, a = LEGS[i]
        if mu:
            g = tuple(map(add, g, mu))
        _bump_term(rows.setdefault(a, {}), g, c * q)


def _bump_term(d, key, c):
    """d[key] += c, dropping the key when the sum vanishes."""
    cur = d.get(key)
    s = c if cur is None else cur + c
    if s:
        d[key] = s
    else:
        d.pop(key, None)


# -- anchor action -----------------------------------------------------------
#
# e^alpha acts on the base by composing anchors, the last generator first.
# The structure's second table holds e^alpha acting on the monomial x^gamma,
# built by peeling the first generator e_i off e^alpha:
#
#   e^alpha . x^gamma = anchor(e_i)(e^(alpha - e_i) . x^gamma).
#
# Every anchor chain reads this table: a basis monomial x^gamma e^alpha acts
# on a polynomial by linearity (``basis_action``), and an element acts as
# the sum of its basis terms' actions (``anchor_action``).


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


def basis_action(spec, key, a):
    """The basis monomial x^gamma e^alpha (key = (gamma, alpha)) acting on
    the polynomial a: x^gamma sum_m a_m (e^alpha . x^m)."""
    return CPoly(spec.nvars, _act_into({}, spec, key, a, 1))


def _act_into(out, spec, key, a, c):
    """out += c x^gamma (e^alpha . a) on {exponent: coefficient}, read from
    the action table; returns out."""
    gamma, alpha = key
    shift = any(gamma)
    scaled = c != 1
    for m, am in a.terms.items():
        if scaled:
            am = c if am == 1 else am * c
        for mu, v in monomial_action(spec, alpha, m).terms.items():
            if shift:
                mu = tuple(map(add, gamma, mu))
            _bump_term(out, mu, am if v == 1 else am * v)
    return out


def pbw_mul(spec, u, v):
    """Associative product in PBW normal form: each monomial of u's
    coefficients times the table entry of e^alpha x^gamma e^beta."""
    if u.rank != v.rank or u.nvars != v.nvars:
        raise ConfigError("operands over different structures")
    nvars = spec.nvars
    zeros = (0,) * nvars
    table = spec._leg_table
    legs = LEGS
    lefts = [(leg_id((zeros, alpha)), a.terms) for alpha, a in u.terms.items()]
    rows = {}
    for beta, b in v.terms.items():
        for gamma, q in b.terms.items():
            ib = leg_id((gamma, beta))
            for ia, aterms in lefts:
                entry = table.get((ia, ib))
                if entry is None:
                    entry = leg_product(spec, ia, ib)
                for mu, p in aterms.items():
                    c = p if q == 1 else q if p == 1 else p * q
                    shift = any(mu)
                    for i, r in entry:
                        g, d = legs[i]
                        if shift:
                            g = tuple(map(add, g, mu))
                        row = rows.get(d)
                        if row is None:
                            row = rows[d] = {}
                        cr = c if r == 1 else c * r
                        cur = row.get(g)
                        if cur is None:
                            row[g] = cr
                        elif cur + cr:
                            row[g] = cur + cr
                        else:
                            del row[g]
    return EnvElement(nvars, spec.rank,
                      {d: CPoly(nvars, row) for d, row in rows.items() if row})


def env_counit(u):
    """Coefficient at alpha = 0 of the normal form."""
    return u.terms.get((0,) * u.rank, CPoly.zero(u.nvars))


def anchor_action(spec, u, a):
    """u acting on the base: counit(u * a), the sum of its basis terms'
    actions."""
    out = {}
    for alpha, poly in u.terms.items():
        for gamma, q in poly.terms.items():
            _act_into(out, spec, (gamma, alpha), a, q)
    return CPoly(spec.nvars, out)
