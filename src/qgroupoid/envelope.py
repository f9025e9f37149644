"""Enveloping algebra of a Lie-Rinehart structure, in PBW normal form.

An ``EnvElement`` stands for sum_alpha a_alpha e^alpha with the
coefficient on the left and e^alpha = e_1^a1 ... e_m^am in fixed
generator order.  It keeps its coefficients as integer numerators by leg
id over one denominator, as ``tensorspace.TensorElement`` does: ``num``
maps the interned id (``leg_id``) of each basis monomial x^gamma e^alpha
to a nonzero ``int`` and ``den`` is one positive ``int``, in lowest terms.
``.terms`` is a read-only {alpha: CPoly} view built once per element,
which hashing, printing and ``env_counit`` read; ``__eq__``
cross-multiplies.
Multiplication rewrites e_i a -> a e_i + anchor(e_i)(a) and
e_j e_i -> e_i e_j - [e_i, e_j] (j > i) until normal; rewriting terminates
because every step lowers (total degree, inversion count) lexicographically.
The rewriting runs once per pair of basis monomials x^gamma e^alpha, into
the structure's one product table (``leg_product``), which every product
of the engine reads.  Envelope products read it through one loop,
``_mul_mono_into``: an element's numerators times a basis monomial, on
either side, summed into one dict of numerators by leg id that holds
exactly the nonzero terms, a left coordinate x^gamma shifting each entry
by its interned shift (``shift_id``).  ``pbw_mul`` sums it over the right
factor's basis terms, and every sum or difference of envelope elements
that a command computes, in ``deform``, ``jets`` and ``drinfeld``, goes
into such a dict, one per h-order, over a denominator fixed first as the
lcm of its pieces' denominators (``_combination``, ``_products``), never
through a chain of ``+``; the result becomes an element once
(``_element``).  The tensor loops of ``tensorspace`` and ``deform`` read
the table on leg ids too.  The table is nested by the monomials' interned
ids, {ia: {ib: entry}}: every basis monomial (gamma, alpha) gets a small
int the first time it is seen, so a lookup hashes an int per level
instead of nested exponent tuples, and a loop over the right factors of
one left leg holds that leg's row.  The anchor action reads a second
table, of e^alpha acting on x^gamma: ``_act_into`` sums a basis monomial
acting on a polynomial into {exponent: coefficient}, and
``anchor_action`` sums it over the basis terms of an element.
"""

from collections import defaultdict
from functools import wraps
from math import gcd, lcm
from operator import add
from types import MappingProxyType

from .errors import ConfigError
from .scalars import CPoly, Fraction

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
    """Normal-form element sum_alpha a_alpha e^alpha as integer numerators
    by leg id over one denominator: ``num`` maps the id (``leg_id``) of
    each basis monomial x^gamma e^alpha to a nonzero ``int`` and ``den``
    is one positive ``int``, in lowest terms.

    ``EnvElement(nvars, rank, terms)`` takes {alpha: CPoly} and brings the
    coefficients over the lcm of their denominators.  Every operation
    returns a new element and none changes ``num`` in place, so elements
    may share it.  ``.terms`` is the value as a read-only {alpha: CPoly}
    view, built once per element; ``__eq__`` cross-multiplies.
    """

    __slots__ = ("nvars", "rank", "num", "den", "_terms", "_hash")

    def __init__(self, nvars, rank, terms=None):
        self.nvars = nvars
        self.rank = rank
        self.num, self.den = _common_den({
            leg_id((gamma, alpha)): q for alpha, c in (terms or {}).items()
            for gamma, q in c.terms.items()})
        self._terms = None
        self._hash = None

    @property
    def terms(self):
        view = self._terms
        if view is None:
            den = self.den
            rows = {}
            for i, c in self.num.items():
                gamma, alpha = LEGS[i]
                rows.setdefault(alpha, {})[gamma] = \
                    c if den == 1 else Fraction(c, den)
            view = self._terms = MappingProxyType(
                {alpha: CPoly(self.nvars, r) for alpha, r in rows.items()})
        return view

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
        return not self.num

    def scale(self, poly):
        """Left multiplication by a coefficient (polynomial or rational)."""
        if isinstance(poly, (int, Fraction)):
            poly = CPoly.const(self.nvars, poly)
        return EnvElement(self.nvars, self.rank,
                          {a: poly * c for a, c in self.terms.items()})

    def __add__(self, other):
        return _combination(self.nvars, self.rank, ((1, self), (1, other)))

    def __sub__(self, other):
        return _combination(self.nvars, self.rank, ((1, self), (-1, other)))

    def __neg__(self):
        return _element(self.nvars, self.rank,
                        {i: -c for i, c in self.num.items()}, self.den)

    def __eq__(self, other):
        return isinstance(other, EnvElement) and \
            _same_value(self.num, self.den, other.num, other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items(),
                                           key=lambda kv: kv[0])))
        return self._hash

    def __repr__(self):
        if not self.num:
            return "0"
        terms = self.terms
        parts = []
        for alpha in sorted(terms, key=lambda a: (sum(a), a)):
            word = "".join("e%d^%d" % (i + 1, k) if k > 1 else "e%d" % (i + 1)
                           for i, k in enumerate(alpha) if k)
            c = str(terms[alpha])
            parts.append("(%s)%s" % (c, word) if word else "(%s)" % c)
        return " + ".join(parts)


def _element(nvars, rank, num, den=1):
    """The EnvElement on the numerators ``num`` (nonzero, not copied) over
    the positive int ``den``, brought to lowest terms: a ``Fraction``
    value, which a rational leg-table entry leaves, is cleared into the
    denominator first, and the content common to ``den`` and every
    numerator is divided out."""
    num, den = _cleared(num, den)
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {i: c // g for i, c in num.items()}
            den //= g
    u = object.__new__(EnvElement)
    u.nvars = nvars
    u.rank = rank
    u.num = num
    u.den = den
    u._terms = None
    u._hash = None
    return u


def _cleared(num, den):
    """(num, den) for the numerators ``num`` over ``den`` whose values are
    ints, or Fractions where a leg-table entry was one: the Fractions'
    denominators cleared into ``den`` once, exactly.  The types are read
    by one C-level pass."""
    if not {int}.issuperset(map(type, num.values())):
        num, d = _common_den(num)
        den *= d
    return num, den


def _common_den(terms):
    """(num, den) of a {key: int or Fraction} dict: integer numerators over
    the lcm of the denominators, zero entries dropped."""
    den = lcm(*[c.denominator for c in terms.values()])
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items() if c}, den


def _same_value(a, da, b, db):
    """Whether the numerators a over da and b over db are one value, by
    cross-multiplying: no gcd is taken."""
    if da == db:
        return a == b
    if len(a) != len(b):
        return False
    for k, c in a.items():
        d = b.get(k)
        if d is None or c * db != d * da:
            return False
    return True


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
    out = {}
    if sum(alpha) > 1:
        head = leg_id((zeros, _bump(alpha, j, -1)))
        for w, q in leg_product(spec, ej, leg_id((gamma, beta))):
            _acc_terms(out, leg_product(spec, head, w), q)
    elif any(gamma):
        _acc_terms(out, leg_product(spec, ej, leg_id((zeros, beta))), 1, gamma)
        for mu, v in monomial_action(spec, alpha, gamma).terms.items():
            _bump_term(out, leg_id((mu, beta)), v)
    else:
        i = _first_nonzero(beta)
        if i is None or j <= i:
            return ((leg_id((zeros, _bump(beta, j))), 1),)
        rest = leg_id((zeros, _bump(beta, i, -1)))
        ei = leg_id((zeros, _bump((0,) * rank, i)))
        for w, q in leg_product(spec, ej, rest):
            _acc_terms(out, leg_product(spec, ei, w), q)
        for k, c in enumerate(spec.bracket_basis(i, j)):
            if c.terms:
                ek = leg_product(spec, leg_id((zeros, _bump((0,) * rank, k))),
                                 rest)
                for mu, v in c.terms.items():
                    _acc_terms(out, ek, -v, mu)
    return tuple((i, q.numerator if q.denominator == 1 else q)
                 for i, q in out.items())


def _acc_terms(out, terms, c, mu=None):
    """out += c x^mu * terms on {leg id: q}, the shift by x^mu read from
    ``shift_id``."""
    for i, q in terms:
        _bump_term(out, shift_id(i, mu) if mu else i, c * q)


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
#
# Every product and sum of elements is accumulated on integer numerators by
# leg id, {id: numerator}, over one denominator that the caller fixes first
# as the lcm of its pieces' denominators, and becomes an element once
# (``_element``), as ``tensorspace`` sums its tensors.


def _mul_mono_into(out, spec, w, key, m=1, right=True):
    """out += m (numerators of w) . x^gamma e^alpha (``right``) or
    m x^gamma e^alpha . (numerators of w), for a normal-form element w, the
    leg id ``key`` of the basis monomial x^gamma e^alpha and a nonzero int
    m, read from the product table; returns out.  The left factor's
    x^gamma shifts the entry of its pure part e^alpha (``shift_id``).
    Like terms merge and a term that cancels is dropped, so out holds
    exactly the nonzero numerators of the sum; they are over w.den times
    the caller's own denominator."""
    table = spec._leg_table
    if not right:
        ia, shift = PURE[key], GAMMA[key]
        row_a = table[ia]
        shifts = SHIFTS[shift] if shift is not None else None
    for i, c in w.num.items():
        if right:
            ia, shift = PURE[i], GAMMA[i]
            entry = table[ia].get(key)
            if entry is None:
                entry = leg_product(spec, ia, key)
            shifts = SHIFTS[shift] if shift is not None else None
        else:
            entry = row_a.get(i)
            if entry is None:
                entry = leg_product(spec, ia, i)
        if m != 1:
            c *= m
        for j, r in entry:
            if shifts is not None:
                k = shifts.get(j)
                j = k if k is not None else shift_id(j, shift)
            v = c if r == 1 else c * r
            cur = out.get(j)
            if cur is None:
                out[j] = v
            else:
                v += cur
                if v:
                    out[j] = v
                else:
                    del out[j]
    return out


def pbw_mul(spec, u, v):
    """Associative product in PBW normal form."""
    if u.rank != v.rank or u.nvars != v.nvars:
        raise ConfigError("operands over different structures")
    return _element(spec.nvars, spec.rank, _pbw_mul_into({}, spec, u, v),
                    u.den * v.den)


def _pbw_mul_into(out, spec, u, v, m=1):
    """out += m (numerators of u) (numerators of v): u times each basis
    term of v; the sum is over u.den v.den times the caller's
    denominator."""
    for j, q in v.num.items():
        _mul_mono_into(out, spec, u, j, q * m)
    return out


def _combination(nvars, rank, pieces):
    """sum c u over pieces (c, u), c rational and u an element, on
    numerators over the lcm of the c.denominator u.den; a lone piece 1 u
    is u itself."""
    pieces = [(c, u) for c, u in pieces if u.num]
    if len(pieces) == 1 and pieces[0][0] == 1:
        return pieces[0][1]
    return _element(nvars, rank, *_aligned_sum(
        [(c, u.num, u.den) for c, u in pieces]))


def _aligned_sum(pieces):
    """(numerators, denominator) of sum c num / den over pieces
    (c, num, den), c rational and num {key: int}: the numerators over the
    lcm of the c.denominator den, zero entries dropped."""
    den = lcm(*[c.denominator * d for c, _, d in pieces])
    out = {}
    for c, num, d in pieces:
        m = c.numerator * (den // (c.denominator * d))
        for i, q in num.items():
            cur = out.get(i)
            v = q * m if cur is None else cur + q * m
            if v:
                out[i] = v
            else:
                del out[i]
    return out, den


def _cauchy(spec, a, b, mul_into, build):
    """The orders of the Cauchy product of the series a and b: order k
    sums its products a_i b_(k-i) of nonzero factors, each by
    ``mul_into(out, spec, a_i, b_(k-i), m)``, into one dict of numerators
    over the lcm of their den(a_i) den(b_(k-i)), m that lcm's cofactor,
    and ``build(out, lcm)`` makes it one value."""
    a._check(b)
    out = []
    for k in range(a.order + 1):
        pairs = [(s, t) for s, t in zip(a.coeffs[:k + 1], b.coeffs[k::-1])
                 if s.num and t.num]
        den = lcm(*[s.den * t.den for s, t in pairs])
        acc = {}
        for s, t in pairs:
            mul_into(acc, spec, s, t, den // (s.den * t.den))
        out.append(build(acc, den))
    return out


def _products(spec, pieces):
    """The element sum q (u . x^gamma e^alpha) over pieces (u, leg id of
    x^gamma e^alpha, q), u an element and q rational, on numerators over
    the lcm of the u.den q.denominator."""
    pieces = [piece for piece in pieces if piece[0].num]
    den = lcm(*[u.den * q.denominator for u, _, q in pieces])
    out = {}
    for u, i, q in pieces:
        _mul_mono_into(out, spec, u, i,
                       q.numerator * (den // (u.den * q.denominator)))
    return _element(spec.nvars, spec.rank, out, den)


def _series_image(spec, mapper, coeffs, n):
    """sum_k h^k mapper(a_k) over the base coefficients a_k, as its first n
    orders: the image of a base series under a base-to-envelope series map
    (source or target), each order one ``_combination``."""
    images = [(k, mapper(ak).coeffs) for k, ak in enumerate(coeffs[:n])
              if not ak.is_zero()]
    return [_combination(spec.nvars, spec.rank, [
        (1, img[t - k]) for k, img in images if k <= t]) for t in range(n)]


def env_counit(u):
    """Coefficient at alpha = 0 of the normal form."""
    return u.terms.get((0,) * u.rank, CPoly.zero(u.nvars))


def anchor_action(spec, u, a):
    """u acting on the base: counit(u * a), the sum of its basis terms'
    actions."""
    out = {}
    den = u.den
    for i, c in u.num.items():
        _act_into(out, spec, LEGS[i], a, c if den == 1 else Fraction(c, den))
    return CPoly(spec.nvars, out)
