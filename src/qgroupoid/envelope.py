"""Enveloping algebra of a Lie-Rinehart structure, in PBW normal form.

An ``EnvElement`` is a sparse map from multi-indices alpha to polynomial
coefficients, standing for sum_alpha a_alpha e^alpha with the coefficient
on the left and e^alpha = e_1^a1 ... e_m^am in fixed generator order.
Multiplication rewrites e_i a -> a e_i + anchor(e_i)(a) and
e_j e_i -> e_i e_j - [e_i, e_j] (j > i) until normal; rewriting terminates
because every step lowers (total degree, inversion count) lexicographically.
The rewriting runs once per pair of basis monomials x^gamma e^alpha, into
the structure's one product table (``leg_product``), which every product
of the engine reads.  Envelope products read it through one loop,
``_mul_mono_into``: an element times a basis monomial, on either side,
summed into rows {alpha: {gamma: q}} that hold exactly the nonzero terms.
``pbw_mul`` sums it over the right factor's basis terms, and every sum
or difference of envelope elements that a command computes, in
``deform``, ``jets`` and ``drinfeld``, goes into such rows, one per
h-order (``_add_rows``, ``_rows_series``), never through a chain of
``+``.  The tensor loops of ``tensorspace`` and ``deform`` read the table
on leg ids.  The table is nested by the monomials' interned ids
(``leg_id``), {ia: {ib: entry}}: every basis monomial (gamma, alpha) gets
a small int the first time it is seen, so a lookup hashes an int per
level instead of nested exponent tuples, and a loop over the right
factors of one left leg holds that leg's row.  The anchor action
reads a second table, of e^alpha acting on x^gamma: ``_act_into`` sums
a basis monomial acting on a polynomial into {exponent: coefficient},
and ``anchor_action`` sums it over the basis terms of an element.
"""

from collections import defaultdict
from functools import wraps
from operator import add

from .errors import ConfigError
from .scalars import CPoly, Fraction
from .series import HSeries

__all__ = [
    "EnvElement", "pbw_mul", "leg_id", "leg_product", "monomial_action",
    "env_counit", "anchor_action",
]


# -- per-object memos -------------------------------------------------------------

_MISS = object()


def memo(f):
    """Keep ``f(owner, *args)`` in ``owner._memos[f.__name__][args]``: a
    table built once per object is an entry of its owner's ``_memos``, a
    ``defaultdict(dict)``.  A sentinel tells a miss, as a stored value may
    be None."""
    name = f.__name__

    @wraps(f)
    def memoised(owner, *args):
        table = owner._memos[name]
        hit = table.get(args, _MISS)
        if hit is _MISS:
            hit = table[args] = f(owner, *args)
        return hit
    return memoised


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
# The tables beside it (each id's pure part and gamma, and the shifts by
# x^mu) are functions of the ids alone, so they cannot go stale either.

_LEG_IDS = {}   # (gamma, alpha) -> id
LEGS = []       # id -> (gamma, alpha)
PURE = []       # id -> the id of (0, alpha)
GAMMA = []      # id -> gamma, None where gamma = 0
SHIFTS = defaultdict(dict)  # mu -> {id: the id of x^mu times it}


def leg_id(leg):
    """The interned id of the basis monomial leg = (gamma, alpha)."""
    i = _LEG_IDS.get(leg)
    if i is None:
        gamma, alpha = leg
        impure = any(gamma)
        pure = leg_id(((0,) * len(gamma), alpha)) if impure else len(LEGS)
        i = _LEG_IDS[leg] = len(LEGS)
        LEGS.append(leg)
        PURE.append(pure)
        GAMMA.append(gamma if impure else None)
    return i


def shift_id(i, mu):
    """The id of x^mu times the monomial with id i, worked out once per
    (i, mu) in the process and kept in ``SHIFTS[mu]``."""
    row = SHIFTS[mu]
    j = row.get(i)
    if j is None:
        gamma, alpha = LEGS[i]
        j = row[i] = leg_id((tuple(map(add, gamma, mu)), alpha))
    return j


# -- the product table -----------------------------------------------------------
#
# By the PBW theorem the monomials x^gamma e^alpha are a basis, so the
# product of two basis monomials fixes every product.  The structure keeps
# these products in one table (``spec._leg_table``), nested by the ids of
# the two monomials, {ia: {ib: entry}}, each entry the product as basis
# terms (id, q), an integral q stored as an ``int``.  A row is made on
# first read (a ``defaultdict``), so the product loops hold the row of a
# left factor and read its entries in place; a unit leg's entries are in
# the table too, the other leg passed through.  A left coordinate x^ga
# only shifts the entry of (x^0 e^alpha, x^gamma e^beta), which is built
# by peeling the last generator e_j off e^alpha:
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
    row = spec._leg_table[ia]
    hit = row.get(ib)
    if hit is None:
        ga, aa = LEGS[ia]
        if any(ga):
            hit = tuple((shift_id(i, ga), q)
                        for i, q in leg_product(spec, PURE[ia], ib))
        else:
            hit = _leg_entry(spec, aa, *LEGS[ib])
        row[ib] = hit
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
    """rows += c x^mu * terms, rows kept as {alpha: {gamma: q}}; returns
    rows."""
    for i, q in terms:
        g, a = LEGS[i]
        if mu:
            g = tuple(map(add, g, mu))
        _bump_term(rows.setdefault(a, {}), g, c * q)
    return rows


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
# The structure's second table, a memo entry keyed by (alpha, gamma), holds
# e^alpha acting on the monomial x^gamma, built by peeling the first
# generator e_i off e^alpha:
#
#   e^alpha . x^gamma = anchor(e_i)(e^(alpha - e_i) . x^gamma).
#
# Every anchor chain reads this table: a basis monomial x^gamma e^alpha acts
# on a polynomial by linearity (``_act_into``), and an element acts as
# the sum of its basis terms' actions (``anchor_action``).


@memo
def monomial_action(spec, alpha, gamma):
    """e^alpha acting on x^gamma through the anchor (the structure's table)."""
    i = _first_nonzero(alpha)
    if i is None:
        return CPoly.monomial(spec.nvars, gamma)
    res = monomial_action(spec, _bump(alpha, i, -1), gamma)
    return spec.anchor_apply(i, res) if not res.is_zero() else res


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


# -- products and sums of elements ----------------------------------------------


def _mul_mono_into(rows, spec, w, key, c=1, right=True):
    """rows += c (w . x^gamma e^alpha) (``right``) or c (x^gamma e^alpha . w)
    for a normal-form element w, the basis monomial key = (gamma, alpha)
    and a nonzero rational c, read from the product table; returns rows.
    The left factor's x^gamma shifts the entry of its pure part e^alpha.
    Like terms merge, a term that cancels is dropped and so is a row it
    empties, so rows hold exactly the nonzero terms of the sum."""
    zeros = (0,) * spec.nvars
    table, legs = spec._leg_table, LEGS
    scaled = c != 1
    if right:
        ib = leg_id(key)
    else:
        ia = leg_id((zeros, key[1]))
        row_a = table[ia]
        shift = key[0] if any(key[0]) else None
    for alpha, poly in w.terms.items():
        if right:
            ia = leg_id((zeros, alpha))
            entry = table[ia].get(ib)
            if entry is None:
                entry = leg_product(spec, ia, ib)
        for gamma, q in poly.terms.items():
            if right:
                shift = gamma if any(gamma) else None
            else:
                ib = leg_id((gamma, alpha))
                entry = row_a.get(ib)
                if entry is None:
                    entry = leg_product(spec, ia, ib)
            if scaled:
                q = c if q == 1 else q * c
            for i, r in entry:
                g, a = legs[i]
                if shift is not None:
                    g = tuple(map(add, g, shift))
                v = q if r == 1 else q * r
                row = rows.get(a)
                if row is None:
                    rows[a] = {g: v}
                    continue
                cur = row.get(g)
                if cur is not None:
                    v += cur
                    if not v:
                        del row[g]
                        if not row:
                            del rows[a]
                        continue
                row[g] = v
    return rows


def pbw_mul(spec, u, v):
    """Associative product in PBW normal form."""
    if u.rank != v.rank or u.nvars != v.nvars:
        raise ConfigError("operands over different structures")
    return _row_element(spec, _pbw_mul_into({}, spec, u, v))


def _pbw_mul_into(rows, spec, u, v):
    """rows += u v: u times each basis term q x^gamma e^beta of v."""
    for beta, b in v.terms.items():
        for gamma, q in b.terms.items():
            _mul_mono_into(rows, spec, u, (gamma, beta), q)
    return rows


def _add_rows(rows, coeffs, c):
    """rows[k] += c * coeffs[k] for envelope elements, each row kept as
    {alpha: {gamma: q}}; stops at the shorter of the two."""
    for acc, u in zip(rows, coeffs):
        for alpha, p in u.terms.items():
            row = acc.setdefault(alpha, {})
            for g, q in p.terms.items():
                _bump_term(row, g, q if c == 1 else c * q)


def _series_rows(mapper, coeffs, n):
    """sum_k h^k mapper(a_k) over the base coefficients a_k, as n per-order
    rows {alpha: {gamma: q}}: the image of a base series under a
    base-to-envelope series map (source or target) up to n orders."""
    rows = [{} for _ in range(n)]
    for k, ak in enumerate(coeffs[:n]):
        if not ak.is_zero():
            _add_rows(rows[k:], mapper(ak).coeffs, 1)
    return rows


def _row_element(spec, row):
    """The normal-form element whose terms are the row {alpha: {gamma: q}};
    an emptied alpha is dropped."""
    nvars = spec.nvars
    return EnvElement(nvars, spec.rank,
                      {alpha: CPoly(nvars, r) for alpha, r in row.items()})


def _rows_series(spec, order, rows):
    """The series of envelope elements whose orders are the rows."""
    return HSeries(order, [_row_element(spec, acc) for acc in rows],
                   EnvElement.zero(spec.nvars, spec.rank))


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
