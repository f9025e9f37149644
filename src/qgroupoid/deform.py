"""h-truncated twist deformations of the enveloping algebroid.

A twistor is an invertible counital 2-cocycle F in the tensor square with
F_0 = 1 (x) 1.  Twisting leaves the algebra alone but deforms the base
product (star product), the source and target maps and the coproduct; the
deformed coproduct is computed on the canonical lifted representative
G . Delta(u) . F where G is the lifted inverse of F.

The lift G . Delta(u) . F is fixed by its values on PBW basis monomials,
and it is multiplicative there: Delta is, and F . G = 1 mod h^(N+1).  So
``DeformedEnvAlgebroid.lift_mono`` conjugates only x^gamma (x) 1 and the
coproduct Delta(e_j) of a generator, and lifts x^gamma e^alpha as the
truncated Cauchy product of the lifts of x^gamma e^(alpha - e_j) and e_j,
e_j its last generator.  The twisted coproduct at one leg of a lifted
tensor (``deformed_coproduct_leg``) puts F and G on the two slots that leg
becomes, so it splices each leg monomial's cached lift in place by the
splice of the coproduct and the H' projection (``tensorspace._splice``);
no series of three or more legs is conjugated.  The twisted coproduct of
an element (``twisted_coproduct``) is that splice on the element as a
series of 1-leg tensors, so every twisted coproduct is one splice.

Two paths compute G . S . F for those 2-leg series
(``DeformedEnvAlgebroid.conjugate``).  A twistor built by ``exp_twistor``
remembers its exponent r, so F = exp(h r) and the Hadamard expansion
G . Y . F = sum_m h^m/m! ad_{-r}^m(Y) costs two products with r per order;
``twistor_invert`` checks that its series is exp_twistor(r) and takes
G = exp(-h r) in closed form.  Every other twistor (``trivial_twistor``,
the explicit per-order series of a spec file) is inverted order by order
and takes the two Cauchy products against the dense series F and G.
``twistor_validate`` never takes the shortcut.  Every Cauchy product of
tensor series here (the conjugation, the lifts of products, the cocycle
identity and the source/target compatibility, the Takeuchi condition and
the multiplicativity check) is ``tensor_series_mul``, which sums each
order into one dict of integer numerators over one denominator.

The base maps s_F and t_F let the legs of F act on the base through the
anchor (the structure's action table, ``envelope.monomial_action``).  The
maps are linear in the base element, so each image s_F(x^m), t_F(x^m) of a
basis monomial is swept once into the deformation's memos
(``DeformedEnvAlgebroid._monomial_image``); a sweep reads F's terms
grouped by the acting leg e^b (``_acting_groups``, a memo entry there
too), takes e^b . x^m once per group and skips the groups where it
vanishes.  The deformation is the one owner of every table its twistor
derives: a ``Twistor`` is its series and exponent alone, and
``twistor_validate`` takes the deformation and reads its tables.  A
polynomial maps as the linear combination of its monomials' images, and a
monomial with coefficient 1 is its table entry.
The star product reads the source image: with s_F(a) = sum (F1 . a) F2,
a *_F b = sum (F1 . a)(F2 . b) is s_F(a) acting on b
(``envelope.anchor_action``), bilinear in (a, b), so
``DeformedEnvAlgebroid.star_coeffs`` sums a table of products of basis
monomials x^m *_F x^m' weighted by the coefficients; on series it is the
h-adic product ``series.laurent_mul`` over those coefficients, as in the
jet pairing.  The Takeuchi relation t_F(a) (x) 1 - 1 (x) s_F(a) is one
memoised series per base element a
(``DeformedEnvAlgebroid.takeuchi_relation``): a lifted tensor lies in the
Takeuchi product at a when its product with the relation reduces to zero,
and F times it is the source/target compatibility of ``twistor_validate``.
Each deformed class test (coassociativity, the multiplicativity of the
coproduct, Takeuchi membership) reduces one signed difference of its two
sides and asks for zero (``_reduces_to_zero``), as the classical
``tensorspace.same_class`` does: ``reduce_series`` is linear, so this is
the verdict of comparing the two reductions for any twistor.
The images of a base series (``source_series``, ``target_series``) sum
the shifted images of its orders into one element per h-order, as the
linear images of polynomials do (``envelope._combination``).
The twistor's counit conditions contract a classical 2-tensor by
``tensorspace.counit_contract``.
The jet dual reads the cached lift of a monomial as it is, by the leg
ids of its integer numerators (``jets._transpose``); how a lift's terms
meet a dual functional's paired leg is known in ``jets`` alone.
``reduce_series`` moves coefficients rightward by the Takeuchi relation
t_F(a) u (x) v = u (x) s_F(a) v.  A leg moves unless it is its own pure
part (0, alpha) (``envelope.PURE``), and it moves through the
t_F-decomposition of its base monomial alone: x^gamma = sum_beta
t_F(c_beta) e^beta gives x^gamma e^alpha = sum_beta t_F(c_beta)
(e^beta e^alpha), so the leg becomes e^beta e^alpha, read from the
structure's leg table (``envelope.leg_product``, nested by leg ids and
memoising the products at monomial granularity), and s_F(c_beta)
multiplies the next leg through the same table.  The deformation keeps,
per leg id of x^gamma (``envelope.leg_id``), the nonzero basis terms of
the s_F(c_beta) (``DeformedEnvAlgebroid.migrants``), each tagged with its
h-order, as leg ids with integer numerators over one denominator: one
memo entry per gamma, whatever the alpha.
Where the structure functions are polynomial, e^beta e^alpha can have
terms x^g e^delta with g != 0; c_beta = O(h) for beta != 0, so those land
at least one h-order up and another pass moves them (at most N more
passes).  The representative is unique, since the envelope is free over
t_F(A) on the e^beta; where every product of generators is pure this is
the decomposition of the whole leg for any twistor, and in general the two
agree when s_F is multiplicative, as for a valid twistor.  Like every
tensor operation, the reduction works on the tensors' integer numerators
over one denominator, keyed by tuples of leg ids.

All series are truncated at a single engine order N; the deformed target
map is h-triangular (plain multiplication at order zero), which makes the
basis decompositions and tensor reductions exact triangular solves.
Envelope series (``defelem_mul``, the sweeps behind s_F and t_F, the
counit contraction, the decompositions) are summed as the envelope sums
them: per h-order, one dict of integer numerators by leg id over the lcm
of the pieces' denominators, filled by its one product loop
(``envelope._mul_mono_into``); ``defelem_mul`` and ``tensor_series_mul``
are one Cauchy loop (``envelope._cauchy``) on the two products.
``basis_decompose`` keeps its remainder that way, raises an order's
denominator once per step to take the images it subtracts, subtracts
each image times e^alpha in place, and multiplies out only the orders a
term's image contributes below the truncation, skipping order zero,
which cancels the term itself.
``DeformedEnvAlgebroid.decompose_mono`` solves only the pure base monomial
x^gamma this way, once per flavor and gamma, and builds x^gamma e^alpha
from it: x^gamma = sum_beta map(c_beta) e^beta gives x^gamma e^alpha =
sum_beta map(c_beta) (e^beta e^alpha), with e^beta e^alpha read from the
leg table, so a pure term q e^delta adds q c_beta to a_delta.  Terms
q x^g e^delta with g != 0, which only polynomial structure functions make
(and only for beta != 0, where c_beta = O(h)), are summed into one
remainder series sum_beta map(c_beta) q x^g e^delta that one more
``basis_decompose`` solves.  Only associativity and linearity over Q are
used, so for any twistor with F_0 = 1 (x) 1 the result is exact mod
h^(N+1), and by the uniqueness of the triangular decomposition it is that
of the whole monomial.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import lcm
from operator import add

from .envelope import (
    GAMMA, LEGS, PURE, EnvElement, _bump, _bump_term, _cauchy, _combination,
    _element, _last_nonzero, _mul_mono_into, _pbw_mul_into, _products,
    _series_image, anchor_action, leg_id, leg_product, memo, monomial_action,
    shift_id,
)
from .errors import ConfigError, InvariantViolation, TriangularityViolation
from .report import Report
from .scalars import CPoly, monomials_upto, pbw_indices
from .series import (
    HLaurent, HSeries, hs_const, hseries_invert, laurent_mul,
)
from .tensorspace import (
    TensorElement, _splice, _tensor_cleared, copro_basis,
    counit_contract, env_coproduct, same_class, tensor_coproduct_leg,
    tensor_mul, tensor_reduce, tensor_series_mul,
)

__all__ = [
    "Twistor", "exp_twistor", "trivial_twistor", "twistor_validate",
    "twistor_invert", "DeformedEnvAlgebroid", "star_product",
    "twisted_coproduct", "basis_decompose", "deformed_axiom_suite",
    "reduce_series", "takeuchi_check_deformed", "defelem_from_env",
    "defelem_mul",
]


class Twistor:
    """Series F with F_0 = 1 (x) 1, optionally remembered as exp(h r).

    A twistor is its series and exponent alone.  What F derives on a
    structure (the images s_F(x^m), t_F(x^m) and F's terms grouped by the
    acting leg) is kept by the deformation that pairs the two
    (``DeformedEnvAlgebroid``), so the series must not change after it is
    given to one.
    """

    def __init__(self, series, exponent=None):
        self.series = series
        self.exponent = exponent

    @property
    def order(self):
        return self.series.order


def trivial_twistor(spec, order):
    unit = TensorElement.unit(spec.nvars, spec.rank, 2)
    zero = TensorElement.zero(spec.nvars, spec.rank, 2)
    return Twistor(hs_const(unit, order, zero))


def exp_twistor(spec, r, order):
    """F = exp(h r) truncated: sum h^n r^n / n! with tensor powers."""
    zero = TensorElement.zero(spec.nvars, spec.rank, 2)
    coeffs = [TensorElement.unit(spec.nvars, spec.rank, 2)]
    power = coeffs[0]
    fact = Fraction(1)
    for n in range(1, order + 1):
        power = tensor_mul(spec, power, r)
        fact *= n
        coeffs.append(power.scale(Fraction(1, fact)))
    return Twistor(HSeries(order, coeffs, zero), exponent=r)


# -- series helpers over tensors and envelope elements ---------------------------


def _tmul(spec):
    return lambda a, b: tensor_mul(spec, a, b)


def defelem_from_env(spec, u, order):
    return hs_const(u, order, EnvElement.zero(spec.nvars, spec.rank))


def defelem_mul(spec, a, b):
    """Cauchy product of envelope series under truncation: each order sums
    its products a_i b_(k-i) by the envelope's product loop into one dict
    of numerators over the lcm of their denominators (``_cauchy``)."""
    return HSeries(a.order, _cauchy(
        spec, a, b, _pbw_mul_into,
        lambda num, den: _element(spec.nvars, spec.rank, num, den)), a.zero)


def _sweep_image(dfa, m, leg):
    """The legs ``leg`` of F act on x^m, the other legs multiply: a term
    c x^g e^b (x) x^gamma e^alpha (acting leg first) adds
    c x^(g + gamma) (e^b . x^m) e^alpha to its order.  F's terms are
    grouped by the acting e^b once per deformation, so e^b . x^m is read
    from the action table once per group, and a group whose action
    vanishes is skipped.  An order's numerators are over den(F_k) times
    the lcm of the denominators of the actions it reads."""
    spec = dfa.spec
    out = []
    for den, per_order in dfa._acting_groups(leg):
        acts = [(monomial_action(spec, b, m).terms, partners)
                for b, partners in per_order.items()]
        acts = [(act, partners) for act, partners in acts if act]
        d = lcm(*[v.denominator for act, _ in acts for v in act.values()])
        acc = {}
        for act, partners in acts:
            act = [(mu, v.numerator * (d // v.denominator))
                   for mu, v in act.items()]
            for p, c in partners:
                for mu, v in act:
                    _bump_term(acc, shift_id(p, mu), c * v)
        out.append(_element(spec.nvars, spec.rank, acc, den * d))
    return HSeries(dfa.order, out, EnvElement.zero(spec.nvars, spec.rank))


# -- twistor validation -----------------------------------------------------------


def twistor_invert(spec, twistor):
    """Lifted inverse G with F . G = G . F = 1 (x) 1 up to order N.

    An exponential twistor's series is first checked to be exp(h r) for
    its exponent r, which costs the N products of ``exp_twistor``; G is
    then the closed form exp(-h r).  Every other twistor takes the
    order-by-order inversion.
    """
    r = twistor.exponent
    if r is not None:
        if exp_twistor(spec, r, twistor.order).series != twistor.series:
            raise InvariantViolation(
                "twistor series is not exp(h r) for its exponent, so the "
                "closed-form inverse exp(-h r) does not apply")
        return exp_twistor(spec, -r, twistor.order).series
    unit = TensorElement.unit(spec.nvars, spec.rank, 2)
    return hseries_invert(twistor.series, _tmul(spec), a0_inv=unit, one=unit)


def twistor_validate(dfa):
    """Counit conditions, 3-leg cocycle identity and the derived
    source/target compatibility on the base monomials of degree <= 2, all
    checked per h-order, for the twistor of the deformation ``dfa``.  The
    cocycle identity holds at order n when the signed difference of its
    two sides, over their common denominator, reduces to zero
    (``tensorspace.same_class``); the compatibility multiplies F by the
    one Takeuchi relation of each monomial (``takeuchi_relation``)."""
    spec = dfa.spec
    order = dfa.order
    report = Report("twistor-validate", {"h_order": order})
    F = dfa.twistor.series
    unit2 = TensorElement.unit(spec.nvars, spec.rank, 2)
    one = EnvElement.one(spec.nvars, spec.rank)

    if report.check("leading-term-is-unit", F.coeffs[:1], lambda F0: (
            None if F0 == unit2 else "F_0 != 1 (x) 1")).witness:
        return report

    def counit_failure(case):
        n, Fn = case
        want = one if n == 0 else EnvElement.zero(spec.nvars, spec.rank)
        if counit_contract(Fn, 0) != want or counit_contract(Fn, 1) != want:
            return "counit condition fails at order h^%d" % n

    report.check("counit-conditions", enumerate(F.coeffs), counit_failure)

    cop0 = F.map(lambda t: tensor_coproduct_leg(spec, t, 0))
    cop1 = F.map(lambda t: tensor_coproduct_leg(spec, t, 1))
    f12 = F.map(lambda t: t.embed(3, 0))
    f23 = F.map(lambda t: t.embed(3, 1))
    lhs = tensor_series_mul(spec, cop0, f12)
    rhs = tensor_series_mul(spec, cop1, f23)
    report.check("cocycle-identity", range(order + 1), lambda n: (
        None if same_class(spec, lhs.coeffs[n], rhs.coeffs[n])
        else "cocycle identity fails at order h^%d" % n))

    def compatibility_failure(a):
        diff = tensor_series_mul(spec, F, dfa.takeuchi_relation(a))
        for n in range(order + 1):
            if not tensor_reduce(spec, diff.coeffs[n]).is_zero():
                return "F (t_F(a) (x) 1 - 1 (x) s_F(a)) != 0 for a=%s at h^%d" % (a, n)

    report.check("source-target-compatibility",
                 monomials_upto(spec.nvars, 2), compatibility_failure)
    return report


# -- the deformed algebroid --------------------------------------------------------


class DeformedEnvAlgebroid:
    """Twisted bialgebroid data: spec + validated twistor + caches.

    Immutable after construction.  Every cache is an ``envelope.memo``
    entry of ``_memos``, keyed by its method's arguments (the methods
    marked "cached"), so results are shared across operations; the
    deformation is the one owner of what its twistor derives on its
    structure.
    """

    def __init__(self, spec, twistor, validate=True):
        self.spec = spec
        self.order = twistor.order
        self.twistor = twistor
        unit = TensorElement.unit(spec.nvars, spec.rank, 2)
        if twistor.series.coeffs[0] != unit:
            raise TriangularityViolation("twistor order-0 term must be 1 (x) 1")
        self._memos = defaultdict(dict)
        if validate:
            rep = twistor_validate(self)
            if not rep.ok():
                raise ConfigError("invalid twistor: %s" % rep.first_failure())
        self.G = twistor_invert(spec, twistor)

    # -- base maps ---------------------------------------------------------------

    def source(self, a):
        return self._linear_image(0, a)

    def target(self, a):
        return self._linear_image(1, a)

    def star_coeffs(self, a, b):
        """h-expansion (list of CPoly) of a *_F b for plain polynomials:
        sum_(m, m') a_m b_m' (x^m *_F x^m'), the products of basis monomials
        read from a table that builds each as s_F(x^m) acting on x^m'."""
        pairs = [(m, ca, m2, cb) for m, ca in a.terms.items()
                 for m2, cb in b.terms.items()]
        if len(pairs) == 1 and pairs[0][1] == pairs[0][3] == 1:
            return self._star_pair(pairs[0][0], pairs[0][2])
        rows = [{} for _ in range(self.order + 1)]
        for m, ca, m2, cb in pairs:
            c = ca * cb
            for row, p in zip(rows, self._star_pair(m, m2)):
                for g, q in p.terms.items():
                    _bump_term(row, g, q if c == 1 else c * q)
        nvars = self.spec.nvars
        return [CPoly(nvars, row) for row in rows]

    @memo
    def _star_pair(self, m, m2):
        """x^m *_F x^m' = s_F(x^m) acting on x^m' (cached)."""
        b = CPoly.monomial(self.spec.nvars, m2)
        return [anchor_action(self.spec, u, b)
                for u in self._monomial_image(m, 0).coeffs]

    @memo
    def _monomial_image(self, m, leg):
        """s_F(x^m) (leg 0) or t_F(x^m) (leg 1) as a series of envelope
        elements, swept once (``_sweep_image``) (cached)."""
        return _sweep_image(self, m, leg)

    @memo
    def _acting_groups(self, leg):
        """The terms c x^g e^b (x) x^gamma e^alpha of each order of F, acting
        leg ``leg`` first, as (den(F_k), {b: [(the leg id of
        x^(g + gamma) e^alpha, the numerator c)]}) per order (cached)."""
        out = []
        for T in self.twistor.series.coeffs:
            groups = {}
            for key, c in T.num.items():
                acting, partner = key[leg], key[1 - leg]
                g = GAMMA[acting]
                groups.setdefault(LEGS[acting][1], []).append(
                    (partner if g is None else shift_id(partner, g), c))
            out.append((T.den, groups))
        return out

    def _linear_image(self, leg, a):
        """sum_m a_m map(x^m) for the base map whose F-legs ``leg`` act,
        the images of the monomials read from the deformation's table
        (``_monomial_image``); a single monomial with coefficient 1 is its
        table entry."""
        spec = self.spec
        terms = a.terms
        if len(terms) == 1:
            (m, c), = terms.items()
            if c == 1:
                return self._monomial_image(m, leg)
        images = [(c, self._monomial_image(m, leg).coeffs)
                  for m, c in terms.items()]
        return HSeries(self.order, [
            _combination(spec.nvars, spec.rank, [(c, img[k]) for c, img in images])
            for k in range(self.order + 1)], EnvElement.zero(spec.nvars, spec.rank))

    def source_series(self, aser):
        """s_F of a base series: sum_k h^k s_F(a_k), one sum per order."""
        return self._series(self.source, aser)

    def target_series(self, aser):
        """t_F of a base series: sum_k h^k t_F(a_k), one sum per order."""
        return self._series(self.target, aser)

    def _series(self, mapper, aser):
        spec = self.spec
        return HSeries(self.order, _series_image(
            spec, mapper, aser.coeffs, self.order + 1),
            EnvElement.zero(spec.nvars, spec.rank))

    @memo
    def takeuchi_relation(self, a):
        """t_F(a) (x) 1 - 1 (x) s_F(a) as a 2-leg tensor series (cached):
        T lies in the Takeuchi product at a when T times it reduces to
        zero (``takeuchi_check_deformed``), and F times it is the
        source/target compatibility of ``twistor_validate``."""
        one = EnvElement.one(self.spec.nvars, self.spec.rank)
        return self.target(a).map(lambda u: TensorElement.of(u, one)) \
            - self.source(a).map(lambda u: TensorElement.of(one, u))

    # -- coproduct lift ------------------------------------------------------------

    @memo
    def lift_mono(self, key):
        """G . Delta(x^gamma e^alpha) . F as a tensor series (cached).

        Only x^gamma (alpha = 0) and a single generator e_j are conjugated
        (``conjugate``).  Every other monomial is x^gamma e^(alpha - e_j)
        times e_j, with e_j its last generator; Delta is multiplicative
        (``tensorspace._copro_mono`` multiplies the primitive factors in
        generator order, x^gamma loading the left legs) and F . G = 1 mod
        h^(N+1) on both ``twistor_invert`` paths, so the lift is the
        truncated Cauchy product of the two factors' lifts, exactly.
        """
        spec = self.spec
        gamma, alpha = key
        j = _last_nonzero(alpha)
        if j is None or (sum(alpha) == 1 and not any(gamma)):
            return self.conjugate(copro_basis(spec, leg_id(key)))
        gen = ((0,) * spec.nvars, _bump((0,) * spec.rank, j))
        return tensor_series_mul(
            spec, self.lift_mono((gamma, _bump(alpha, j, -1))),
            self.lift_mono(gen))

    def conjugate(self, T):
        """G . T . F for the classical 2-leg tensor T (``lift_mono`` passes
        only x^gamma (x) 1 and Delta(e_j)).

        An exponential twistor F = exp(h r) takes the Hadamard expansion
        G . T . F = sum_m h^m/m! ad_{-r}^m(T), ad_{-r}(Y) = Y r - r Y, so
        every order costs two products with r.  The series is exp(h r)
        because ``twistor_invert`` checked it against ``exp_twistor(r)``
        before taking exp(-h r) as G.  Other twistors take the two Cauchy
        products (``tensor_series_mul``).
        """
        spec = self.spec
        r = self.twistor.exponent
        zero = TensorElement.zero(spec.nvars, spec.rank, 2)
        if r is None:
            return tensor_series_mul(spec, self.G, tensor_series_mul(
                spec, hs_const(T, self.order, zero), self.twistor.series))
        out = [T] + [zero] * self.order
        for m in range(1, self.order + 1):
            T = (tensor_mul(spec, T, r) - tensor_mul(spec, r, T)).scale(
                Fraction(1, m))
            if T.is_zero():
                break
            out[m] = T
        return HSeries(self.order, out, zero)

    # -- decompositions --------------------------------------------------------------

    @memo
    def decompose_mono(self, key, flavor):
        """x^gamma e^alpha = sum_beta map(a_beta) e^beta, triangular in h
        (cached).

        Only a pure base monomial x^gamma (alpha = 0) is solved by
        ``basis_decompose``.  With its decomposition x^gamma = sum_beta
        map(c_beta) e^beta, associativity gives x^gamma e^alpha = sum_beta
        map(c_beta) (e^beta e^alpha), with e^beta e^alpha read from the leg
        table: a pure term q e^delta of it adds q c_beta to a_delta.  Where
        the structure functions are polynomial, a term q x^g e^delta with
        g != 0 can occur, only for beta != 0, where c_beta = O(h); those
        terms are summed into one series sum_beta map(c_beta) q x^g e^delta,
        and one ``basis_decompose`` of it adds the rest.  Each step is exact
        mod h^(N+1) and linear over Q, so for any twistor with F_0 = 1 (x) 1
        the result is the unique triangular decomposition of the whole
        monomial.  As in ``basis_decompose``, no a_delta is zero and the keys
        come by first nonzero order, then by delta.
        """
        gamma, alpha = key
        if any(alpha):
            return self._decompose_product(gamma, alpha, flavor)
        spec = self.spec
        u = defelem_from_env(spec, EnvElement.from_poly(
            spec.rank, CPoly.monomial(spec.nvars, gamma)), self.order)
        return basis_decompose(self, u, flavor)

    @memo
    def base_legs(self, gamma, flavor):
        """The leg ids of the e^beta of the decomposition of x^gamma alone,
        in its order (cached): the factors that ``_decompose_product``
        multiplies by e^alpha."""
        zeros = (0,) * self.spec.nvars
        return tuple(leg_id((zeros, beta)) for beta in self.decompose_mono(
            (gamma, (0,) * self.spec.rank), flavor))

    @memo
    def pairing_support(self, key, flavor):
        """The indices delta of the leg-table terms q e^delta of every
        e^beta e^alpha, e^beta over the decomposition of x^gamma alone, for
        key = (gamma, alpha), as a tuple without repeats; None when some
        term is impure, x^g e^delta with g != 0 (cached).  Without an
        impure term, the keys of the decomposition of x^gamma e^alpha are
        among these indices."""
        spec = self.spec
        gamma, alpha = key
        a = leg_id(((0,) * spec.nvars, alpha))
        legs = [LEGS[i] for b in self.base_legs(gamma, flavor)
                for i, _ in leg_product(spec, b, a)]
        impure = any(any(g) for g, _ in legs)
        return None if impure else tuple(
            dict.fromkeys(delta for _, delta in legs))

    def _decompose_product(self, gamma, alpha, flavor):
        """The decomposition of x^gamma e^alpha from that of x^gamma, as
        ``decompose_mono`` describes.  Each h-order is one sum of products
        with leg-table terms (``envelope._products``): c_beta e^delta for
        the pure terms q e^delta of e^beta e^alpha, then the solved
        remainder of the impure ones."""
        spec = self.spec
        n = self.order
        nvars, rank = spec.nvars, spec.rank
        zeros_g = (0,) * nvars
        mapper = self.source_series if flavor == "source" else self.target_series
        a = leg_id((zeros_g, alpha))
        pure = [[] for _ in range(n + 1)]   # per h-order (element, leg, q)
        rest = [[] for _ in range(n + 1)]   # the same, of the impure terms

        def add(delta, coeffs, q):
            for acc, c in zip(pure, coeffs):
                acc.append((EnvElement.from_poly(rank, c), delta, q))

        base = self.decompose_mono((gamma, (0,) * rank), flavor)
        for b, cser in zip(self.base_legs(gamma, flavor), base.values()):
            for l, q in leg_product(spec, b, a):
                if PURE[l] != l:
                    for acc, u in zip(rest, mapper(cser).coeffs):
                        acc.append((u, l, q))
                else:
                    add(l, cser.coeffs, q)
        if any(rest):
            zero = EnvElement.zero(nvars, rank)
            for delta, rser in basis_decompose(self, HSeries(n, [
                    _products(spec, acc) for acc in rest], zero), flavor).items():
                add(leg_id((zeros_g, delta)), rser.coeffs, 1)
        return _by_index(nvars, [_products(spec, acc) for acc in pure])

    @memo
    def migrants(self, g):
        """(d, [(id of e^beta, the nonzero basis terms of s_F(c_beta))])
        for the leg id g of a pure base monomial x^gamma = (gamma, 0) and
        its t_F-decomposition x^gamma = sum_beta t_F(c_beta) e^beta, the
        terms a tuple of (h-order j, leg id, n) in increasing j, n an
        integer numerator over the one denominator d.

        A leg x^gamma e^alpha is sum_beta t_F(c_beta) (e^beta e^alpha), so
        the Takeuchi relation t_F(a) u (x) v = u (x) s_F(a) v moves each
        c_beta onto the next leg; ``_reduce_leg`` reads this cache, one
        entry per gamma whatever the alpha, takes e^beta e^alpha and the
        products of each basis term with the next leg from the leg table
        (``leg_product``).  c_beta = O(h) for beta != 0, because t_F is
        plain multiplication at order zero.
        """
        zeros = (0,) * self.spec.nvars
        moved = [(leg_id((zeros, beta)), self.source_series(cser).coeffs)
                 for beta, cser in self.decompose_mono(LEGS[g], "target").items()]
        d = lcm(*[u.den for _, orders in moved for u in orders])
        return d, [
            (pure, tuple((j, i, c * (d // u.den))
                         for j, u in enumerate(orders)
                         for i, c in u.num.items()))
            for pure, orders in moved]


# -- public operations ---------------------------------------------------------------


def star_product(dfa, aser, bser):
    """Associative unital product on the deformed base ring: the h-adic
    product of two series whose coefficients multiply by ``star_coeffs``."""
    aser._check(bser)
    prod = laurent_mul(HLaurent.from_hseries(aser), HLaurent.from_hseries(bser),
                       dfa.star_coeffs, dfa.order)
    return HSeries(prod.top, prod.coeffs, aser.zero)


def twisted_coproduct(dfa, u):
    """Lifted representative G . Delta(u) . F of the twisted coproduct: the
    twisted coproduct at the one leg of u as a series of 1-leg tensors
    (``deformed_coproduct_leg``), as ``tensorspace.env_coproduct`` is the
    classical splice."""
    return deformed_coproduct_leg(dfa, u.map(TensorElement.of), 0)


def deformed_coproduct_leg(dfa, HT, leg):
    """Apply the twisted coproduct at one leg of a lifted tensor series.

    G and F sit on the two slots that leg ``leg`` becomes and are the unit
    on every other, so G . (id (x) Delta (x) id)(T) . F replaces each
    monomial w on that leg by its cached lift G . Delta(w) . F
    (``lift_mono``): a term c h^k (x) w (x) v contributes c h^(k+j) times
    each order j of the lift of w, spliced between its other legs
    (``tensorspace._splice``, the splice of the classical coproduct).
    """
    spec = dfa.spec
    zero = TensorElement.zero(spec.nvars, spec.rank, HT.zero.legs + 1)
    return HSeries(dfa.order, _splice(
        HT.coeffs, leg, lambda w: dfa.lift_mono(LEGS[w]).coeffs, zero.legs),
        zero)


def basis_decompose(dfa, u, flavor="source"):
    """u = sum_beta map_F(a_beta) e^beta, solved by triangular back-substitution.

    ``flavor`` picks the source or the target map.  The remainder is kept
    per h-order as integer numerators by leg id over one denominator,
    brought to lowest terms when its order is read.  A term a h^k e^alpha
    goes into a_alpha and its image map_F(a) e^alpha h^k comes off the
    remainder; the image is a + O(h) because F_0 = 1 (x) 1, so order k
    cancels the term itself and only the orders k + j, 1 <= j <= N - k,
    that survive the truncation are multiplied out.  a is mapped monomial
    by monomial through the deformation's cached base maps, and each order
    of the image times e^alpha is subtracted in place by the envelope's
    product loop (``_mul_mono_into``).  Exact at truncation.
    """
    if flavor not in ("source", "target"):
        raise ConfigError("flavor must be source or target")
    spec = dfa.spec
    nvars = spec.nvars
    n = dfa.order
    mapper = dfa.source if flavor == "source" else dfa.target
    remaining = [[dict(uk.num), uk.den] for uk in u.coeffs]
    layers = []
    for k in range(n + 1):
        rem = _element(nvars, spec.rank, *remaining[k])
        layers.append(rem)
        if k == n:
            continue
        den = rem.den
        terms = [(PURE[i], c, mapper(CPoly.monomial(nvars, LEGS[i][0])).coeffs)
                 for i, c in rem.num.items()]
        for j in range(1, n - k + 1):
            pieces = [(mono, c, mapped[j]) for mono, c, mapped in terms
                      if mapped[j].num]
            if not pieces:
                continue
            # bring the remainder of order k + j and these pieces over one
            # denominator, then subtract c / den map(x^gamma)_j e^alpha
            acc = remaining[k + j]
            step = den * lcm(*[w.den for _, _, w in pieces])
            total = lcm(acc[1], step)
            if total != acc[1]:
                up = total // acc[1]
                acc[0] = {i: c * up for i, c in acc[0].items()}
                acc[1] = total
            for mono, c, w in pieces:
                _mul_mono_into(acc[0], spec, w, mono,
                               -c * (total // (den * w.den)))
    return _by_index(nvars, layers)


def _by_index(nvars, elements):
    """{alpha: the series of a_alpha} for the series sum_k h^k sum_alpha
    a_alpha e^alpha whose orders are the elements: keys by first nonzero
    order, then by alpha, and no series zero."""
    n = len(elements) - 1
    zero_p = CPoly.zero(nvars)
    coeffs = {}
    for k, u in enumerate(elements):
        terms = u.terms
        for alpha in sorted(terms):
            coeffs.setdefault(alpha, [zero_p] * (n + 1))[k] = terms[alpha]
    return {alpha: HSeries(n, cs, zero_p) for alpha, cs in coeffs.items()}


def reduce_series(dfa, HT):
    """Canonical representative of a lifted tensor series in the deformed
    tensor product: all legs but the last become pure PBW monomials, the
    coefficients migrate rightward through t_F-decompositions."""
    out = HT
    for leg in range(HT.zero.legs - 1):
        out = _reduce_leg(dfa, out, leg)
    return out


def _reduce_leg(dfa, HT, leg):
    """One reduction step on integer numerators.

    A leg w = x^gamma e^alpha moves unless it is its own pure id (gamma = 0).
    It moves through the migrants of x^gamma alone: with x^gamma =
    sum_beta t_F(c_beta) e^beta, w (x) v = sum_beta (e^beta e^alpha) (x)
    s_F(c_beta) v, e^beta e^alpha read from the leg table.  Where the
    structure functions are polynomial, e^beta e^alpha can have terms
    x^g e^delta with g != 0; those come only from beta != 0, where c_beta
    = O(h), so they land at least one h-order up and the next pass moves
    them again.  Each pass raises the lowest order it holds, so at most N
    passes follow the first.  A pass multiplies the common denominator den
    by the lcm s of the denominators d of the migrants it reads, so a term
    c / den moved by a migrant numerator m / d lands as c (s / d) m over
    den s.

    Where every product of generators is pure (constant structure
    functions) this is the t_F-decomposition of x^gamma e^alpha itself,
    for any twistor; in general the two agree when s_F is multiplicative,
    as it is for a valid twistor.  The representative is unique because
    the envelope is free over t_F(A) on the e^beta.
    """
    spec = dfa.spec
    n = dfa.order
    table, pure = spec._leg_table, PURE
    zeros = (0,) * spec.rank
    den = lcm(*[Tk.den for Tk in HT.coeffs])
    pending = [(Tk.num, den // Tk.den) for Tk in HT.coeffs]
    acc = [dict() for _ in range(n + 1)]
    base = {}     # moving leg id -> the id of its x^gamma
    while pending:
        moving = {}
        for terms, _ in pending:
            for key in terms:
                w = key[leg]
                if pure[w] != w:
                    g = base.get(w)
                    if g is None:
                        g = base[w] = leg_id((LEGS[w][0], zeros))
                    if g not in moving:
                        moving[g] = dfa.migrants(g)
        scale = lcm(*[d for d, _ in moving.values()])
        if scale != 1:
            den *= scale
            for out in acc:
                for key in out:
                    out[key] *= scale
        carry = [dict() for _ in range(n + 1)]
        for k, (terms, up) in enumerate(pending):
            up *= scale
            for key, c in terms.items():
                w = key[leg]
                if pure[w] == w:
                    _bump_term(acc[k], key, c * up)
                    continue
                d, moved = moving[base[w]]
                c *= up // d
                a, nxt = pure[w], key[leg + 1]
                head, tail = key[:leg], key[leg + 2:]
                for p, terms_p in moved:
                    entry = table[p].get(a)
                    if entry is None:
                        entry = leg_product(spec, p, a)
                    for l, q in entry:
                        dest = acc if pure[l] == l else carry
                        cl = c * q
                        for j, wl, cw in terms_p:
                            if k + j > n:
                                break
                            out = dest[k + j]
                            cc = cl * cw
                            prod = table[wl].get(nxt)
                            if prod is None:
                                prod = leg_product(spec, wl, nxt)
                            for l2, q2 in prod:
                                _bump_term(out, head + (l, l2) + tail, cc * q2)
        pending = [(t, 1) for t in carry] if any(carry) else None
    legs = HT.zero.legs
    coeffs = [_tensor_cleared(spec.nvars, spec.rank, legs, d, den) for d in acc]
    return HSeries(n, coeffs, HT.zero)


def takeuchi_check_deformed(dfa, HT, samples):
    """sum (u_i t_F(a)) (x) u'_i == sum u_i (x) (u'_i s_F(a)) after
    reduction, for each base element a of ``samples``: HT times the
    relation t_F(a) (x) 1 - 1 (x) s_F(a) (``takeuchi_relation``) reduces
    to zero.  A sample whose relation is zero (a = 1 when the twistor
    meets the counit conditions) is not compared."""
    for a in samples:
        rel = dfa.takeuchi_relation(a)
        if any(T.num for T in rel.coeffs) and not _reduces_to_zero(
                dfa, tensor_series_mul(dfa.spec, HT, rel)):
            return False
    return True


def _reduces_to_zero(dfa, HT):
    """Whether the lifted tensor series HT, the signed difference of two
    sides, is zero in the deformed tensor product.  ``reduce_series`` is
    linear, so this is the verdict of comparing the two sides' reductions,
    from one reduction."""
    return not any(T.num for T in reduce_series(dfa, HT).coeffs)


def _counit_contract(dfa, HT, leg):
    """Contract the lift with the counit on leg ``leg``, one sum per
    order.

    leg 0:  sum s_F(eps(w1)) . w2;  leg 1: sum t_F(eps(w2)) . w1.
    """
    spec = dfa.spec
    n = dfa.order
    mapper = dfa.source if leg == 0 else dfa.target
    pieces = [[] for _ in range(n + 1)]
    for k, Tk in enumerate(HT.coeffs):
        for key, c in Tk.num.items():
            g_eps, a_eps = LEGS[key[leg]]
            if any(a_eps):
                continue
            eps = mapper(CPoly.monomial(spec.nvars, g_eps)).coeffs
            c = Fraction(c, Tk.den)
            for acc, w in zip(pieces[k:], eps):
                acc.append((w, key[1 - leg], c))
    return HSeries(n, [_products(spec, acc) for acc in pieces],
                   EnvElement.zero(spec.nvars, spec.rank))


def sample_defelems(dfa, max_degree=2):
    """PBW monomials of total degree 1..max_degree as constant series, in
    lexicographic order of their indices: a sample's position decides
    which witness a failing check reports."""
    spec = dfa.spec
    indices = sorted(a for a in pbw_indices(spec.rank, max_degree) if any(a))
    return [defelem_from_env(
        spec, EnvElement.monomial(spec.nvars, spec.rank, alpha), dfa.order)
        for alpha in indices]


def deformed_axiom_suite(dfa, sample_degree=2, extra_polys=()):
    """Verify the twisted-bialgebroid axioms at the engine truncation.

    Each sample's lift, its s_F and t_F series and each star product of
    two samples are built once per suite, on first use, so every check
    still stops at its first failure.
    """
    spec = dfa.spec
    n = dfa.order
    report = Report("deformed-axioms", {"h_order": n})
    polys = monomials_upto(spec.nvars, sample_degree) + list(extra_polys)
    psers = [hs_const(a, n, CPoly.zero(spec.nvars)) for a in polys]
    elems = sample_defelems(dfa, sample_degree)
    pidx, eidx = range(len(psers)), range(len(elems))

    @cache
    def star(i, j):
        return star_product(dfa, psers[i], psers[j])

    @cache
    def src(i):
        return dfa.source_series(psers[i])

    @cache
    def tgt(i):
        return dfa.target_series(psers[i])

    @cache
    def lift(i):
        return twisted_coproduct(dfa, elems[i])

    def assoc_failure(abc):
        a, b, c = abc
        if star_product(dfa, star(a, b), psers[c]) \
                != star_product(dfa, psers[a], star(b, c)):
            return "star product not associative"

    report.check("star-associativity", product(pidx, repeat=3), assoc_failure)

    one = hs_const(CPoly.one(spec.nvars), n, CPoly.zero(spec.nvars))
    report.check("star-unitality", psers, lambda a: (
        None if star_product(dfa, a, one) == a and star_product(dfa, one, a) == a
        else "unit law fails"))

    pairs = list(product(pidx, repeat=2))

    def morphism_failure(ab):
        a, b = ab
        if defelem_mul(spec, src(a), src(b)) != dfa.source_series(star(a, b)):
            return "source map not a star morphism"
        if defelem_mul(spec, tgt(a), tgt(b)) != dfa.target_series(star(b, a)):
            return "target map not a star antimorphism"

    report.check("source-target-morphisms", pairs, morphism_failure)

    def commute_failure(ab):
        a, b = ab
        if defelem_mul(spec, src(a), tgt(b)) != defelem_mul(spec, tgt(b), src(a)):
            return "source and target images do not commute"

    report.check("source-target-commute", pairs, commute_failure)

    def coassociativity_failure(i):
        if not _reduces_to_zero(dfa, deformed_coproduct_leg(dfa, lift(i), 0)
                                - deformed_coproduct_leg(dfa, lift(i), 1)):
            return "coassociativity fails on %r" % (elems[i].coeffs[0],)

    report.check("coassociativity", eidx, coassociativity_failure)

    def counit_failure(i):
        u = elems[i]
        if _counit_contract(dfa, lift(i), 0) != u:
            return "left counit axiom fails on %r" % (u.coeffs[0],)
        if _counit_contract(dfa, lift(i), 1) != u:
            return "right counit axiom fails on %r" % (u.coeffs[0],)

    report.check("counit-axioms", eidx, counit_failure)

    def multiplicative_failure(ij):
        i, j = ij
        if not _reduces_to_zero(dfa, twisted_coproduct(
                dfa, defelem_mul(spec, elems[i], elems[j]))
                - tensor_series_mul(spec, lift(i), lift(j))):
            return "coproduct not multiplicative"

    report.check("coproduct-multiplicative", product(eidx[:3], repeat=2),
                 multiplicative_failure)

    report.check("takeuchi-membership", eidx, lambda i: (
        None if takeuchi_check_deformed(dfa, lift(i), polys)
        else "coproduct image outside Takeuchi subspace"))

    # the base polynomials, then the indices of the samples
    def classical_failure(case):
        if isinstance(case, int):
            if not same_class(spec, lift(case).coeffs[0],
                              env_coproduct(spec, elems[case].coeffs[0])):
                return "coproduct deformed at order zero"
        elif dfa.source(case).coeffs[0] != EnvElement.from_poly(spec.rank, case):
            return "source map deformed at order zero"
        elif dfa.target(case).coeffs[0] != EnvElement.from_poly(spec.rank, case):
            return "target map deformed at order zero"

    report.check("classical-limit", chain(polys, eidx), classical_failure)
    return report
