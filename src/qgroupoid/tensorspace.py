"""Lifted tensor products of enveloping elements.

Tensors are taken over the ground field on the k-basis of monomials
x^gamma e^alpha, so a term is a tuple of legs (gamma, alpha) with a
rational coefficient.  The class in the tensor product over the base ring
is represented by the canonical reduction that moves every coefficient
into the last leg; class equality is reduction equality.

A ``TensorElement`` keeps its coefficients as integer numerators over one
denominator, as FLINT's ``fmpq_poly`` keeps a polynomial: ``num`` maps each
key to a nonzero ``int`` and ``den`` is one positive ``int``.  Products
multiply the denominators, sums align them to their lcm, and negation,
``flip``, ``embed`` and the reduction copy the numerators, so the layer does
integer arithmetic only.  ``den`` is not kept in lowest terms: content is
removed only where a value leaves the layer.  ``.terms`` is a read-only
``{monomial key: Fraction}`` view in lowest terms, built once per tensor,
and ``__hash__`` reads it; ``__eq__`` cross-multiplies and needs no gcd.

A leg is a basis monomial x^gamma e^alpha, and inside the layer it is
its interned id (``envelope.leg_id``: one process-wide registry that
names each exponent pair (gamma, alpha) by a small int the first time it
is seen, for every structure alike).  ``num`` is keyed by tuples of leg
ids, so a lookup hashes a tuple of ints, where a tuple of nested exponent
tuples costs about three times as much.  The public face keeps the
monomials: the constructor takes nested keys ((gamma, alpha), ...),
``.terms`` gives them back.  ``__hash__``, ``__repr__`` and the order-h
cobracket of ``drinfeld`` read ``.terms``; everything else reads ``num``
by leg id: the jet dual product (``jets._transpose``), the associativity
reach of ``jets.jet_axiom_suite``, the twistor's acting legs and the
counit contraction of ``deform``, the leg projections of ``drinfeld``,
and ``counit_contract`` and ``TensorElement.of``, which meet an
``envelope.EnvElement`` on its own numerators by leg id over its one
denominator.  Ids follow the order in which monomials are first
seen, so nothing sorts by id; every ordered output sorts the monomials.

Legs are multiplied through the structure's one product table
(``spec._leg_table``: {ia: {ib: the product of the legs ia and ib as
basis terms (id, q)}}, an integral coefficient stored as an ``int``),
which the envelope's product loop reads as well and
``envelope.leg_product`` fills.  ``tensor_mul`` multiplies leg by leg
through it, and the tensor reduction of ``deform`` multiplies its basis
terms by it.  The classical Takeuchi check is two such products,
T (a (x) 1) and T (1 (x) a), compared after reduction.  A product has 2
or 3 legs: it holds the table rows of each left term's legs, reads the
entries of each pair of terms in place (a unit leg's entry passes the
other leg through) and expands them in a fixed loop nest.  None is wider,
since the twisted coproduct of
a leg splices cached 2-leg lifts rather than multiplying wider tensors.
A structure with rational structure functions may store a ``Fraction``;
``tensor_mul`` then brings its result back to integer numerators once.
``tensor_reduce`` reads, per leg id, the id of its pure part (0, alpha)
and its gamma from tables beside the registry (``PURE``, ``GAMMA``) and
migrates the gamma of every leg that is not pure onto the last leg; each
(last id, total gamma) shift is interned once per process (``SHIFTS``).
Like the product, it has fixed loops for 2 and 3 legs and refuses any
other width; ``tests/oracles.nested_tensor_reduce``, one loop for every
width on nested monomial keys, is the reference.  Two tensors are
one class when their signed difference, over the lcm of their
denominators, reduces to zero (``same_class``): one reduction into one
dict, where comparing two reductions builds both.

A Cauchy product of tensor series (``tensor_series_mul``) sums each
h-order into one dict of integer numerators over one denominator, the lcm
of the den_i den_j of its products, where a chain of ``+`` would realign
the denominators and copy the dict once per product.

Every coproduct reads Delta(x^gamma e^alpha) of a leg id
(``copro_basis``), Delta(e^alpha) with gamma loaded on its left legs;
Delta(e^alpha) is built once per structure and kept in the structure's
memos (``_copro_mono``, an ``envelope.memo`` entry keyed by alpha).
``tensor_coproduct_leg`` splices it into one leg, and
the coproduct of an element is that splice on the element as a 1-leg
tensor.  ``counit_contract`` is the one counit contraction of a classical
2-tensor, multiplying the other leg on the left: the counit leg's gamma
shifts the other leg's id (``envelope.shift_id``), over the tensor's
denominator.
"""

from math import lcm
from operator import add
from types import MappingProxyType

from .envelope import (
    GAMMA, LEGS, PURE, EnvElement, _aligned_sum, _bump_term, _cleared,
    _common_den, _element, _same_value, leg_id, leg_product, memo, shift_id,
)
from .errors import ConfigError
from .scalars import Fraction
from .series import HSeries

# the most legs an iterated coproduct may build
MAX_LEGS = 8

__all__ = [
    "TensorElement", "env_coproduct", "tensor_mul", "tensor_series_mul",
    "counit_contract", "tensor_reduce", "same_class", "takeuchi_check",
]


def _unit_id(nvars, rank):
    """The id of the unit leg x^0 e^0."""
    return leg_id(((0,) * nvars, (0,) * rank))


def _tensor(nvars, rank, legs, num, den=1):
    """A TensorElement on the numerators ``num`` (nonzero ints, not copied)
    over the positive int ``den``."""
    T = object.__new__(TensorElement)
    T.nvars = nvars
    T.rank = rank
    T.legs = legs
    T.num = num
    T.den = den
    T._terms = None
    T._hash = None
    return T


class TensorElement:
    """Integer numerators ``num`` {key of leg ids: int} over one
    denominator ``den``.

    ``TensorElement(nvars, rank, legs, terms)`` takes nested keys
    ((gamma, alpha), ...) with rational (``int`` or ``Fraction``)
    coefficients and brings them over the lcm of their denominators.
    Every operation returns a new tensor and none changes ``num`` in
    place, so tensors may share it.  ``.terms`` is the value as a
    read-only {nested key: Fraction} view in lowest terms.
    """

    __slots__ = ("nvars", "rank", "legs", "num", "den", "_terms", "_hash")

    def __init__(self, nvars, rank, legs, terms=None):
        self.nvars = nvars
        self.rank = rank
        self.legs = legs
        num, self.den = _common_den(terms) if terms else ({}, 1)
        self.num = {tuple(map(leg_id, k)): c for k, c in num.items()}
        self._terms = None
        self._hash = None

    @property
    def terms(self):
        view = self._terms
        if view is None:
            den = self.den
            leg = LEGS.__getitem__
            view = self._terms = MappingProxyType(
                {tuple(map(leg, k)): Fraction(c, den)
                 for k, c in self.num.items()})
        return view

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars, rank, legs=2):
        return cls(nvars, rank, legs)

    @classmethod
    def unit(cls, nvars, rank, legs=2):
        return _tensor(nvars, rank, legs, {(_unit_id(nvars, rank),) * legs: 1})

    @classmethod
    def of(cls, *factors):
        """Outer product of EnvElements: the factors' numerators by leg id
        multiplied, over the product of their denominators.  The legs of
        one factor have distinct ids, so no two products share a key."""
        first = factors[0]
        num, den = {(): 1}, 1
        for u in factors:
            legs = u.num.items()
            num = {key + (i,): c * q for key, c in num.items()
                   for i, q in legs}
            den *= u.den
        return _tensor(first.nvars, first.rank, len(factors), num, den)

    # -- ring-ish operations ---------------------------------------------------

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        self._check(other)
        return self._combine(other, 1)

    def __sub__(self, other):
        self._check(other)
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        if not other.num:
            return self
        num, den = _aligned_sum(((1, self.num, self.den),
                                 (sign, other.num, other.den)))
        return _tensor(self.nvars, self.rank, self.legs, num, den if num else 1)

    def __neg__(self):
        return _tensor(self.nvars, self.rank, self.legs,
                       {k: -c for k, c in self.num.items()}, self.den)

    def scale(self, c):
        """c times this tensor: c's numerator multiplies the numerators and
        its denominator the denominator."""
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return TensorElement.zero(self.nvars, self.rank, self.legs)
        p = c.numerator
        num = self.num if p == 1 else {k: v * p for k, v in self.num.items()}
        return _tensor(self.nvars, self.rank, self.legs, num,
                       self.den * c.denominator)

    def flip(self):
        """Swap the two legs of a 2-leg tensor."""
        if self.legs != 2:
            raise ConfigError("flip is for 2-leg tensors")
        return _tensor(self.nvars, self.rank, 2,
                       {(k[1], k[0]): c for k, c in self.num.items()}, self.den)

    def embed(self, legs, pos):
        """Place this tensor at slots pos..pos+self.legs-1 of a wider tensor."""
        unit = _unit_id(self.nvars, self.rank)
        pre = (unit,) * pos
        post = (unit,) * (legs - pos - self.legs)
        return _tensor(self.nvars, self.rank, legs,
                       {pre + k + post: c for k, c in self.num.items()},
                       self.den)

    def _check(self, other):
        if self.legs != other.legs or self.rank != other.rank:
            raise ConfigError("tensor shape mismatch")

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.legs == other.legs \
            and _same_value(self.num, self.den, other.num, other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.legs, tuple(sorted(self.terms.items()))))
        return self._hash

    def __repr__(self):
        if not self.num:
            return "0"

        def leg_str(key):
            gamma, alpha = key
            bits = [("x%d^%d" % (j + 1, g)) if g > 1 else "x%d" % (j + 1)
                    for j, g in enumerate(gamma) if g]
            bits += [("e%d^%d" % (i + 1, a)) if a > 1 else "e%d" % (i + 1)
                     for i, a in enumerate(alpha) if a]
            return "*".join(bits) or "1"

        terms = self.terms
        parts = []
        for key in sorted(terms):
            c = terms[key]
            body = " (x) ".join(leg_str(k) for k in key)
            parts.append("%s[%s]" % ("" if c == 1 else str(c) + " ", body))
        return " + ".join(parts)


# -- products -------------------------------------------------------------------


def tensor_mul(spec, s, t):
    """Factorwise multiplication of lifted tensors.

    Every leg product is read from the structure's product table, where a
    unit leg x^0 e^0 passes the other operand's leg through.  A 2- or
    3-leg pair expands its leg products in a fixed loop nest, which adds a
    single-term product as one term; any other width is a
    ``ConfigError``.  The numerators multiply with the leg coefficients
    and the denominators multiply; a ``Fraction`` leg coefficient is
    cleared from the result at the end.
    """
    s._check(t)
    out = _mul_into({}, spec, s, t, 1)
    return _tensor_cleared(s.nvars, s.rank, s.legs, out, s.den * t.den)


def _mul_into(out, spec, s, t, m):
    """out += m * (numerators of s times those of t), leg by leg; returns
    out, whose values are ints or, where a leg coefficient was one,
    Fractions.  A product has 2 or 3 legs and takes a fixed loop nest that
    reads the leg products from the structure's table in place; any other
    width is a ``ConfigError``."""
    if s.legs not in (2, 3):
        raise ConfigError("tensor products have 2 or 3 legs")
    if not (s.num and t.num):
        return out
    if s.legs == 2:
        return _mul2_into(out, spec, s.num, t.num, m)
    return _mul3_into(out, spec, s.num, t.num, m)


def _mul2_into(out, spec, snum, tnum, m):
    """``_mul_into`` for 2-leg tensors: the table rows of each left term's
    legs are held, and an entry not yet in them is filled by
    ``leg_product``."""
    table = spec._leg_table
    tnum = tnum.items()
    for (a0, a1), ca in snum.items():
        if m != 1:
            ca *= m
        r0, r1 = table[a0], table[a1]
        for (b0, b1), cb in tnum:
            try:
                e0, e1 = r0[b0], r1[b1]
            except KeyError:
                e0, e1 = leg_product(spec, a0, b0), leg_product(spec, a1, b1)
            c = ca * cb
            for k0, q0 in e0:
                c0 = c if q0 == 1 else c * q0
                for k1, q1 in e1:
                    c1 = c0 if q1 == 1 else c0 * q1
                    key = (k0, k1)
                    cur = out.get(key)
                    v = c1 if cur is None else cur + c1
                    if v:
                        out[key] = v
                    else:
                        del out[key]
    return out


def _mul3_into(out, spec, snum, tnum, m):
    """``_mul_into`` for 3-leg tensors, read as ``_mul2_into`` reads."""
    table = spec._leg_table
    tnum = tnum.items()
    for (a0, a1, a2), ca in snum.items():
        if m != 1:
            ca *= m
        r0, r1, r2 = table[a0], table[a1], table[a2]
        for (b0, b1, b2), cb in tnum:
            try:
                e0, e1, e2 = r0[b0], r1[b1], r2[b2]
            except KeyError:
                e0, e1, e2 = (leg_product(spec, a0, b0),
                              leg_product(spec, a1, b1),
                              leg_product(spec, a2, b2))
            c = ca * cb
            for k0, q0 in e0:
                c0 = c if q0 == 1 else c * q0
                for k1, q1 in e1:
                    c1 = c0 if q1 == 1 else c0 * q1
                    for k2, q2 in e2:
                        c2 = c1 if q2 == 1 else c1 * q2
                        key = (k0, k1, k2)
                        cur = out.get(key)
                        v = c2 if cur is None else cur + c2
                        if v:
                            out[key] = v
                        else:
                            del out[key]
    return out


def tensor_series_mul(spec, a, b):
    """Cauchy product of two tensor series under truncation.  Each order
    sums its products a_i b_(k-i) into one dict of numerators over the
    lcm of their denominators den(a_i) den(b_(k-i)), a Fraction leg
    coefficient cleared once; an order with no product is ``a.zero``."""
    a._check(b)
    n = a.order
    zero = a.zero
    nvars, rank, legs = zero.nvars, zero.rank, zero.legs
    out = []
    for k in range(n + 1):
        pairs = [(s, t) for s, t in zip(a.coeffs[:k + 1], b.coeffs[k::-1])
                 if s.num and t.num]
        if not pairs:
            out.append(zero)
            continue
        den = lcm(*[s.den * t.den for s, t in pairs])
        acc = {}
        for s, t in pairs:
            s._check(t)
            _mul_into(acc, spec, s, t, den // (s.den * t.den))
        out.append(_tensor_cleared(nvars, rank, legs, acc, den if acc else 1))
    return HSeries(n, out, zero)


def _tensor_cleared(nvars, rank, legs, out, den):
    """The tensor ``out`` / ``den`` for an accumulated ``out`` whose values
    are ints, or Fractions where a leg coefficient was one; the Fractions'
    denominators are cleared into ``den`` once, exactly."""
    return _tensor(nvars, rank, legs, *_cleared(out, den))


# -- coproduct ------------------------------------------------------------------


@memo
def _copro_mono(spec, alpha):
    """Delta(e^alpha) as a lifted 2-tensor, memoised on the structure."""
    T = TensorElement.unit(spec.nvars, spec.rank, 2)
    for i in range(spec.rank):
        if not alpha[i]:
            continue
        gen = EnvElement.gen(spec.nvars, spec.rank, i)
        one = EnvElement.one(spec.nvars, spec.rank)
        prim = TensorElement.of(gen, one) + TensorElement.of(one, gen)
        for _ in range(alpha[i]):
            T = tensor_mul(spec, T, prim)
    return T


def copro_basis(spec, key):
    """Delta(x^gamma e^alpha) for the leg id ``key`` of (gamma, alpha): the
    memoised Delta(e^alpha) with gamma added to the exponents of its left
    legs, where the base coefficient loads."""
    gamma, alpha = LEGS[key]
    T = _copro_mono(spec, alpha)
    if not any(gamma):
        return T
    return _tensor(spec.nvars, spec.rank, 2, {
        (shift_id(left, gamma), right): c
        for (left, right), c in T.num.items()}, T.den)


def env_coproduct(spec, u):
    """Multiplicative coproduct on the lift: generators are primitive,
    base coefficients load the left leg (the coproduct at the one leg of
    u as a 1-leg tensor)."""
    return tensor_coproduct_leg(spec, TensorElement.of(u), 0)


def tensor_coproduct_leg(spec, T, leg):
    """Apply the coproduct at one leg of a lifted tensor (legs grow by one)."""
    pieces = {}
    for key in T.num:
        w = key[leg]
        if w not in pieces:
            pieces[w] = copro_basis(spec, w)
    den = lcm(*[p.den for p in pieces.values()])
    out = {}
    for key, c in T.num.items():
        piece = pieces[key[leg]]
        if piece.den != den:
            c *= den // piece.den
        head, tail = key[:leg], key[leg + 1:]
        for k2, c2 in piece.num.items():
            kk = head + k2 + tail
            cur = out.get(kk)
            s = c * c2 if cur is None else cur + c * c2
            if s:
                out[kk] = s
            else:
                del out[kk]
    return _tensor(T.nvars, T.rank, T.legs + 1, out, T.den * den)


# -- reduction and class checks ---------------------------------------------------


def tensor_reduce(spec, T):
    """Canonical representative modulo the base-ring relations.

    All coefficients migrate to the last leg; earlier legs become pure PBW
    monomials.  Idempotent; class equality is equality of reductions
    (``same_class``).  Each earlier leg is replaced by its pure id
    (``envelope.PURE``), and the gammas of those that are not pure
    (``envelope.GAMMA``, None for a pure leg) shift the last leg; each
    (last id, total gamma) is interned once per process
    (``envelope.SHIFTS``).  A tensor has 2 or 3 legs and takes a fixed
    loop (``_reduce_into``); any other width is a ``ConfigError``.
    """
    return _tensor(T.nvars, T.rank, T.legs, _reduce_into({}, T, 1), T.den)


def same_class(spec, s, t):
    """Whether s and t reduce to the same class: one signed reduction of
    s - t, each side's numerators scaled to the lcm of the two
    denominators, summed into one dict that must come out empty, where
    comparing two reductions builds both."""
    s._check(t)
    den = s.den if s.den == t.den else lcm(s.den, t.den)
    out = _reduce_into({}, s, den // s.den)
    return not _reduce_into(out, t, -(den // t.den))


def _reduce_into(out, T, m):
    """out += m * (the reduced numerators of T); returns out, whose
    entries stay nonzero.  A tensor has 2 or 3 legs, the only widths a
    command reduces, and takes a fixed loop; any other width is a
    ``ConfigError``, as in ``_mul_into``."""
    if T.legs == 2:
        return _reduce2_into(out, T.num, m)
    if T.legs == 3:
        return _reduce3_into(out, T.num, m)
    raise ConfigError("tensor reductions have 2 or 3 legs")


def _reduce2_into(out, num, m):
    """``_reduce_into`` for 2-leg tensors."""
    gam, pure = GAMMA, PURE
    for key, c in num.items():
        a, last = key
        g = gam[a]
        if g is not None:
            key = (pure[a], shift_id(last, g))
        if m != 1:
            c *= m
        cur = out.get(key)
        if cur is None:
            out[key] = c
        else:
            c += cur
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _reduce3_into(out, num, m):
    """``_reduce_into`` for 3-leg tensors."""
    gam, pure = GAMMA, PURE
    for key, c in num.items():
        a, b, last = key
        ga, gb = gam[a], gam[b]
        if ga is not None or gb is not None:
            if ga is None:
                g = gb
            elif gb is None:
                g = ga
            else:
                g = tuple(map(add, ga, gb))
            key = (pure[a], pure[b], shift_id(last, g))
        if m != 1:
            c *= m
        cur = out.get(key)
        if cur is None:
            out[key] = c
        else:
            c += cur
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def counit_contract(T, leg):
    """(eps (x) id) T for leg 0, (id (x) eps) T for leg 1, on a classical
    2-tensor: sum eps(w_leg) w_other, where eps(x^gamma e^alpha) is x^gamma
    at alpha = 0 and zero otherwise.  The counit value multiplies the other
    leg on the left, t(eps(v)) u = eps(v) u, which is well defined on the
    tensor product over the base, where a u (x) v = u (x) a v."""
    out = {}
    for key, c in T.num.items():
        e, other = key[leg], key[1 - leg]
        if not any(LEGS[e][1]):
            g = GAMMA[e]
            _bump_term(out, other if g is None else shift_id(other, g), c)
    return _element(T.nvars, T.rank, out, T.den)


def takeuchi_check(spec, T, samples):
    """Membership in the Takeuchi subspace, classical structure maps.

    For every sampled base element a the reductions of
    sum (u_i t(a)) (x) u'_i = T (a (x) 1) and sum u_i (x) (u'_i s(a)) =
    T (1 (x) a) must agree.
    """
    one = EnvElement.one(spec.nvars, spec.rank)
    for a in samples:
        a_env = EnvElement.from_poly(spec.rank, a)
        if not same_class(spec,
                          tensor_mul(spec, T, TensorElement.of(a_env, one)),
                          tensor_mul(spec, T, TensorElement.of(one, a_env))):
            return False
    return True
