"""Test-only oracles, test data and the parity registry, kept out of the
engine; no command of the CLI calls these.

``PARITY`` is the one registry of fast paths: (name, fast path, reference,
input generator, comparison).  A reference is the slow path at the end of
its chain of oracles, or an earlier link that its own entry checks against
that end: the generator-by-generator rewriting for the envelope and its
product table, the Cauchy conjugation G . S . F for every lift, one
summed series per basis term for the twisted coproduct of an element, the
projections of the membership test on nested monomial keys, the sweeps
over the twistor's terms for s_F, t_F and the star product, the
back-substitution of the whole series for a decomposition, ``HLaurent``
chains over whole decompositions for the jet pairings, products built
with ``pbw_mul`` for the functionals that pair one, the gather over every
PBW index for the dual product, and loops on nested monomial keys and on
Fractions for the interned integer tensor layer.  An input generator takes
a deformation and the dual flavors to build contexts for and returns the
argument tuples; a comparison asserts value, window (val, top), table keys
and term order, as each entry's predecessors did.  ``check`` drives
entries.  Oracles memoise their own intermediate results per deformation
or context (``memo_of``), never the fast path's.

Besides the registry: ``reexpand`` inverts ``deform.basis_decompose``;
``evaluation_iso_check`` and ``jet_coproduct_decompose`` check the jet
pairing against the divided xi-powers; ``poisson_from_pair`` is the
Poisson bracket of a Lie bialgebroid read off
``lierinehart.cobracket_from_dual_spec``; ``random_valid_specs`` and
``jacobi_violating_spec`` feed ``properties.structure_property_suite``
(structures whose axioms hold by construction, one that breaks Jacobi),
and ``generated_dfa`` twists some of them for the registry.
"""

import itertools
import os
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import add

from qgroupoid import deform, drinfeld, jets
from qgroupoid.deform import (
    DeformedEnvAlgebroid, basis_decompose, defelem_from_env,
    defelem_mul, deformed_coproduct_leg, exp_twistor, reduce_series,
    sample_defelems, same_class as _same_class, trivial_twistor,
    twisted_coproduct, twistor_validate,
)
from qgroupoid.envelope import (
    LEGS, EnvElement, _act_into, _bump_term, _mul_mono_into, anchor_action,
    env_counit, leg_id, leg_product, monomial_action, pbw_mul,
)
from qgroupoid.errors import (
    ConfigError, FlavorError, TruncationInsufficientError,
)
from qgroupoid.jets import (
    LEFT, RIGHT, JetContext, JetElement, _apply_series_map, _pair_leg,
    _pair_rows, _product_rows, _tabulate, coordinate_functional,
    divided_xi_powers, jet_coproduct_functional, jet_pair, jet_product,
    table_sum, tensor_functional_from_pair, tensor_tables_equal,
    unit_functional, xi_functional,
)
from qgroupoid.lierinehart import LieRinehartSpec, cobracket_from_dual_spec
from qgroupoid.scalars import CPoly, monomials_upto, pbw_indices
from qgroupoid.series import (
    HLaurent, HSeries, LaurentSum, hs_const, hs_zero, hseries_invert,
    hseries_mul, laurent_mul,
)
from qgroupoid.specfile import load_spec, load_spec_file
from qgroupoid.tensorspace import (
    TensorElement, _common_den, _copro_mono, _mul_into,
    _tensor, _tensor_cleared, _unit_id, copro_basis, env_coproduct,
    takeuchi_check, tensor_coproduct_leg, tensor_mul, tensor_reduce,
    tensor_series_mul,
)

SPEC = os.path.join(os.path.dirname(__file__), "..", "specs", "axb.spec")

_MEMO = weakref.WeakKeyDictionary()


def memo_of(owner):
    """The oracles' own memo for a structure, a deformation or a
    context."""
    return _MEMO.setdefault(owner, {})


# -- structures and deformations ---------------------------------------------------


def _bump(alpha, i, by=1):
    out = list(alpha)
    out[i] += by
    return tuple(out)


def axb_structure():
    return load_spec_file(SPEC).build_structure()


def bracketed_structure(a=2):
    """rho(e1) = x1 d1 + a x2 d2, rho(e2) = d1, rho(e3) = d2,
    [e1, e2] = -e2, [e1, e3] = -a e3."""
    one, zero = CPoly.one(2), CPoly.zero(2)
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    bracket = {(0, 1): (zero, -one, zero),
               (0, 2): (zero, zero, CPoly.const(2, -a))}
    anchor = [[x1, x2 * a], [one, zero], [zero, one]]
    return LieRinehartSpec(2, 3, bracket, anchor, name="bracket")


def rational_structure():
    """The bracketed structure at a = 1/2: rho(e1) = x1 d1 + x2 d2 / 2 and
    [e1, e3] = -e3 / 2 put halves into the leg table."""
    return bracketed_structure(Fraction(1, 2))


def polynomial_structure():
    """rho(e1) = d1, rho(e2) = x1^2 d1 + d2, [e1, e2] = 2 x1 e1: a polynomial
    structure function, so e2 e1 = e1 e2 - 2 x1 e1 is not a pure monomial."""
    one, zero = CPoly.one(2), CPoly.zero(2)
    x1 = CPoly.var(2, 0)
    return LieRinehartSpec(2, 2, {(0, 1): (x1 * 2, zero)},
                           [[one, zero], [x1 * x1, one]], name="polynomial")


def arbitrary_exponent(spec):
    """A 2-term r with coordinates on both legs; not a cocycle."""
    p, m = spec.nvars, spec.rank
    left = EnvElement.monomial(p, m, _bump((0,) * m, m - 1), CPoly.var(p, 0))
    right = EnvElement.monomial(p, m, _bump((0,) * m, 0))
    mixed = EnvElement.monomial(p, m, _bump(_bump((0,) * m, 0), m - 1),
                                CPoly.var(p, p - 1))
    return TensorElement.of(left, right).scale(Fraction(2, 3)) \
        - TensorElement.of(right, mixed)


def exp_dfa(spec, order):
    tw = exp_twistor(spec, arbitrary_exponent(spec), order)
    return DeformedEnvAlgebroid(spec, tw, validate=False)


def _spec_dfa(text, order):
    espec = load_spec(text)
    spec = espec.build_structure()
    return DeformedEnvAlgebroid(spec, espec.build_twistor(spec, order),
                                validate=False)


ORDERS_SPEC = """
[base]
vars = x1 x2
[generators]
names = d1 d2
[anchor]
w 1 1 = 1
w 2 2 = 1
[twistor]
form = orders
order 1 = 1 | x1*d1 | d2
order 2 = -1/3 | d1 | x2*d2
[truncation]
h_order = 3
"""

# axb's structure under a valid explicit twistor that is not exp(h F_1):
# F_2 != F_1^2 / 2, so the deformation inverts it order by order and
# conjugates by the two Cauchy products
NONEXP_SPEC = """[base]
vars = x1 x2
[generators]
names = d1 d2
[anchor]
w 1 1 = 1
w 2 2 = 1
[twistor]
form = orders
order 1 = 1 | d1 | x1
order 1 = -1 | x1*d1 | 1
order 2 = 1 | d2 | x1*x2
order 2 = -1 | x1*x2*d2 | 1
[truncation]
h_order = 3
"""

# axb widened to rank 4: d3 and d4 act by zero, [d3, d4] = d3, and the
# twistor carries a d3 (x) d4 term
RANK4_SPEC = """[base]
vars = x1 x2
[generators]
names = d1 d2 d3 d4
[anchor]
w 1 1 = 1
w 2 2 = 1
[bracket]
c 3 4 3 = 1
[twistor]
form = exp
term = 1/2 | x1*d1 | d2
term = -1/2 | d2 | x1*d1
term = 1 | d3 | d4
[truncation]
h_order = 2
"""


def axb_exp_dfa(order=3):
    with open(SPEC) as f:
        return _spec_dfa(f.read(), order)


def orders_dfa():
    return _spec_dfa(ORDERS_SPEC, 3)


def rank4_dfa():
    return _spec_dfa(RANK4_SPEC, 2)


def bracketed_exp_dfa():
    return exp_dfa(bracketed_structure(), 3)


def rational_exp_dfa():
    return exp_dfa(rational_structure(), 2)


def polynomial_exp_dfa(order=3):
    """The abelian twist exp(h r), r = (X (x) Y - Y (x) X) / 2 with X = e1 and
    Y = e2 - x1^2 e1, so [X, Y] = 0, rho(X) = d1 and rho(Y) = d2, at
    truncation ``order``."""
    spec = polynomial_structure()
    X = EnvElement.monomial(2, 2, (1, 0))
    Y = EnvElement.monomial(2, 2, (0, 1)) \
        - EnvElement.monomial(2, 2, (1, 0), CPoly.var(2, 0) * CPoly.var(2, 0))
    r = (TensorElement.of(X, Y) - TensorElement.of(Y, X)).scale(Fraction(1, 2))
    return DeformedEnvAlgebroid(spec, exp_twistor(spec, r, order),
                                validate=False)


def central_exp_dfa():
    """rho(e1) = d1, rho(e2) = rho(e3) = 0, [e1, e2] = x1 e3, e3 central,
    twisted by exp(h r), r = (e1 (x) e2 - e2 (x) e1) / 2 (not a cocycle):
    e2 e1 = e1 e2 - x1 e3 puts e3 into the remainder of a decomposition,
    an index that no pure term of e^beta e^alpha has."""
    one, zero = CPoly.one(1), CPoly.zero(1)
    spec = LieRinehartSpec(1, 3, {(0, 1): (zero, zero, CPoly.var(1, 0))},
                           [[one], [zero], [zero]], name="central")
    e1 = EnvElement.monomial(1, 3, (1, 0, 0))
    e2 = EnvElement.monomial(1, 3, (0, 1, 0))
    r = (TensorElement.of(e1, e2) - TensorElement.of(e2, e1)).scale(
        Fraction(1, 2))
    return DeformedEnvAlgebroid(spec, exp_twistor(spec, r, 3), validate=False)


def random_tensor(spec, rng, terms=2):
    """A sum of ``terms`` outer products of basis monomials x^g e^a with
    |g| <= 1 and |a| <= 1, with small rational weights."""
    p, m = spec.nvars, spec.rank
    gammas = [(0,) * p] + [_bump((0,) * p, j) for j in range(p)]
    alphas = [(0,) * m] + [_bump((0,) * m, i) for i in range(m)]

    def mono():
        return EnvElement.monomial(p, m, rng.choice(alphas),
                                   CPoly.monomial(p, rng.choice(gammas)))

    out = TensorElement.zero(p, m)
    for _ in range(terms):
        weight = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))
        out = out + TensorElement.of(mono(), mono()).scale(weight)
    return out


def random_dfa(i, seed=11):
    """The i-th seeded structure of ``random_valid_specs`` (rank 2 or 3, at
    most 2 variables), twisted at N = 2 + i % 2 by exp(h r) for even i and
    by an explicit per-order series (form = orders) for odd i, each with
    random 2-tensors: invertible twistors that need not be cocycles."""
    spec = random_valid_specs(seed, 6)[i]
    rng = random.Random(seed * 10 + i)
    order = 2 + i % 2
    if i % 2:
        zero = TensorElement.zero(spec.nvars, spec.rank)
        unit = TensorElement.unit(spec.nvars, spec.rank)
        tw = HSeries(order, [unit] + [random_tensor(spec, rng)
                                      for _ in range(order)], zero)
    else:
        tw = exp_twistor(spec, random_tensor(spec, rng), order)
    return DeformedEnvAlgebroid(spec, tw, validate=False)


GENERATED_SEED = 31
GENERATED = 3


def generated_dfa(i, order=2):
    """The i-th generated case: one of the structures 6, 7, 8 of
    ``random_valid_specs`` (its makers of rank 4 and 5, one, two or three
    variables), for the seeds 31, 32, ... in turn, at truncation ``order``,
    twisted by exp(h r) with r = c (X (x) Y - Y (x) X) for two generators
    e_a, e_b whose bracket vanishes, X = e_a or x_k e_a, Y = e_b, when
    ``twistor_validate`` accepts it at N = 2, and by the trivial twistor
    otherwise; so the twistor does not depend on the order."""
    spec = random_valid_specs(GENERATED_SEED + i // 3, 9)[6 + i % 3]
    rng = random.Random(GENERATED_SEED * 100 + i)
    p, m = spec.nvars, spec.rank
    pairs = [(a, b) for a, b in itertools.combinations(range(m), 2)
             if all(c.is_zero() for c in spec.bracket_basis(a, b))]
    a, b = rng.choice(pairs)
    coeff = CPoly.var(p, rng.randrange(p)) if p and rng.random() < 0.5 \
        else CPoly.one(p)
    X = EnvElement.monomial(p, m, _bump((0,) * m, a), coeff)
    Y = EnvElement.monomial(p, m, _bump((0,) * m, b))
    r = (TensorElement.of(X, Y) - TensorElement.of(Y, X)).scale(
        Fraction(rng.choice((1, -1, 2)), 2))
    valid = twistor_validate(DeformedEnvAlgebroid(
        spec, exp_twistor(spec, r, 2), validate=False)).ok()
    tw = exp_twistor(spec, r, order) if valid else trivial_twistor(spec, order)
    return DeformedEnvAlgebroid(spec, tw, validate=False)


def random_valid_specs(seed, count=3):
    """Seeded valid structures from axiom-safe families: six families of
    rank 2 or 3 and at most two variables, then the action algebroid of
    rank 4 on three variables, a filiform algebra of rank 4 or 5 and
    the tangent algebroid of three variables beside two abelian
    generators, rank 5."""
    rng = random.Random(seed)
    out = []
    makers = [_derivation_algebra, _solvable_rank2, _heisenberg,
              _polynomial_solvable, _split_anchor, _line_vector_fields,
              _action_rank4, _filiform, _tangent_and_abelian]
    while len(out) < count:
        out.append(makers[len(out) % len(makers)](rng))
    return out


def _derivation_algebra(rng):
    p = rng.choice((1, 2))
    one, zero = CPoly.one(p), CPoly.zero(p)
    anchor = [[one if i == j else zero for j in range(p)] for i in range(p)]
    return LieRinehartSpec(p, p, {}, anchor, name="derivations-p%d" % p)


def _solvable_rank2(rng):
    p = rng.choice((0, 1))
    a = Fraction(rng.randint(-3, 3))
    b = Fraction(rng.randint(-3, 3))
    c = {(0, 1): (CPoly.const(p, a), CPoly.const(p, b))}
    return LieRinehartSpec(p, 2, c, None, name="solvable-rank2")


def _heisenberg(rng):
    c = Fraction(rng.randint(1, 4))
    zero = CPoly.zero(0)
    table = {(0, 1): (zero, zero, CPoly.const(0, c))}
    return LieRinehartSpec(0, 3, table, None, name="heisenberg")


def _polynomial_solvable(rng):
    f = CPoly.monomial(1, (rng.randint(0, 2),), Fraction(rng.randint(1, 3)))
    table = {(0, 1): (f, CPoly.zero(1))}
    return LieRinehartSpec(1, 2, table, None, name="poly-solvable")


def _split_anchor(rng):
    zero = CPoly.zero(2)
    c1 = CPoly.const(2, rng.randint(1, 3))
    c2 = CPoly.const(2, rng.randint(1, 3))
    anchor = [[c1, zero], [zero, c2]]
    return LieRinehartSpec(2, 2, {}, anchor, name="split-anchor")


def _line_vector_fields(rng):
    # e1 = d/dx, e2 = (a + b x) d/dx: [e1, e2] = b e1
    a = Fraction(rng.randint(-2, 2))
    b = Fraction(rng.randint(1, 3))
    one = CPoly.one(1)
    coeff = CPoly.const(1, a) + CPoly.var(1, 0) * b
    bracket = {(0, 1): (CPoly.const(1, b), CPoly.zero(1))}
    anchor = [[one], [coeff]]
    return LieRinehartSpec(1, 2, bracket, anchor, name="line-fields")


def _action_rank4(rng):
    # e1, e2, e3 = d1, d2, d3 and e4 = a x1 d2: [e1, e4] = a e2
    a = rng.randint(1, 3)
    one, zero = CPoly.one(3), CPoly.zero(3)
    anchor = [[one, zero, zero], [zero, one, zero], [zero, zero, one],
              [zero, CPoly.var(3, 0) * a, zero]]
    bracket = {(0, 3): (zero, CPoly.const(3, a), zero, zero)}
    return LieRinehartSpec(3, 4, bracket, anchor, name="action-rank4")


def _filiform(rng):
    # [e1, e_j] = c_j e_(j+1) for 1 < j < m, zero anchor
    m, p = rng.choice((4, 5)), rng.choice((1, 2))
    zero = CPoly.zero(p)
    bracket = {}
    for j in range(1, m - 1):
        row = [zero] * m
        row[j + 1] = CPoly.const(p, rng.randint(1, 3))
        bracket[(0, j)] = tuple(row)
    return LieRinehartSpec(p, m, bracket, None, name="filiform-%d" % m)


def _tangent_and_abelian(rng):
    # e1, e2, e3 = d1, d2, d3; e4, e5 act by zero, [e1, e4] = c e5
    one, zero = CPoly.one(3), CPoly.zero(3)
    anchor = [[one if i == j else zero for j in range(3)] for i in range(3)]
    anchor += [[zero] * 3, [zero] * 3]
    bracket = {(0, 3): (zero,) * 4 + (CPoly.const(3, rng.randint(1, 3)),)}
    return LieRinehartSpec(3, 5, bracket, anchor, name="tangent-abelian")


def jacobi_violating_spec():
    one, zero = CPoly.one(0), CPoly.zero(0)
    table = {
        (0, 1): (zero, zero, one),
        (1, 2): (one, zero, zero),
        (0, 2): (one, zero, zero),
    }
    return LieRinehartSpec(0, 3, table, None, name="jacobi-violation")


def polynomial_brackets(spec):
    """Whether some structure function [e_i, e_j] has a non-constant
    coefficient."""
    return any(any(m) for i, j in itertools.combinations(range(spec.rank), 2)
               for c in spec.bracket_basis(i, j) for m in c.terms)


# -- input data ----------------------------------------------------------------------


def random_elem(spec, rng, max_deg=3):
    alphas = [a for a in itertools.product(range(max_deg + 1), repeat=spec.rank)
              if sum(a) <= max_deg]
    gammas = [g for g in itertools.product(range(3), repeat=spec.nvars)
              if sum(g) <= 2]
    terms = {}
    for _ in range(3):
        alpha = rng.choice(alphas)
        coeff = CPoly.monomial(spec.nvars, rng.choice(gammas),
                               Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        terms[alpha] = terms.get(alpha, CPoly.zero(spec.nvars)) + coeff
    return EnvElement(spec.nvars, spec.rank, terms)


def random_poly(spec, rng):
    gammas = [g for g in itertools.product(range(4), repeat=spec.nvars)
              if sum(g) <= 3]
    out = CPoly.zero(spec.nvars)
    for _ in range(3):
        out = out + CPoly.monomial(spec.nvars, rng.choice(gammas),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def env_mono(spec, key):
    gamma, alpha = key
    return EnvElement.monomial(spec.nvars, spec.rank, alpha,
                               CPoly.monomial(spec.nvars, gamma))


def low_monomials(spec, max_deg=2):
    alphas = [a for a in itertools.product(range(max_deg + 1), repeat=spec.rank)
              if sum(a) <= max_deg]
    gammas = [(0,) * spec.nvars]
    if spec.nvars:
        gammas.append(_bump(gammas[0], 0))
    return [(g, a) for a in alphas for g in gammas]


def low_keys(spec, max_deg):
    """x^gamma e^alpha for gamma = 0 or one variable and |alpha| <= max_deg."""
    gammas = [(0,) * spec.nvars] + [_bump((0,) * spec.nvars, j)
                                   for j in range(spec.nvars)]
    return [(g, a) for a in pbw_indices(spec.rank, max_deg) for g in gammas]


def base_map_inputs(dfa):
    """Monomials with unit and other coefficients and random multi-term
    polynomials."""
    spec = dfa.spec
    rng = random.Random(5)
    monos = monomials_upto(spec.nvars, 2)
    return monos + [p * Fraction(-3, 2) for p in monos[1:]] \
        + [random_poly(spec, rng) for _ in range(6)]


def flat_terms(image):
    """{(order, ...basis key): coefficient} of a series of envelope
    elements or a list of polynomials."""
    out = {}
    for k, c in enumerate(getattr(image, "coeffs", image)):
        if isinstance(c, CPoly):
            out.update(((k, g), q) for g, q in c.terms.items())
        else:
            out.update(((k, a, g), q) for a, p in c.terms.items()
                       for g, q in p.terms.items())
    return out


def cancelling_poly(nvars, images):
    """q' x^m - q x^m' for two monomials whose images share a term, with
    coefficients q and q' there, so the term cancels in the image of the
    combination; returns the polynomial and the cancelled term, or None
    when no two images share a term."""
    for (m, A), (m2, B) in itertools.combinations(images.items(), 2):
        A, B = flat_terms(A), flat_terms(B)
        for key, q in A.items():
            q2 = B.get(key)
            if q2 is not None:
                return CPoly(nvars, {m: q2, m2: -q}), key
    return None


def base_cancel(dfa, leg):
    """``cancelling_poly`` over the images of the monomials x^m, m < 3 in
    every variable, under s_F (leg 0) or t_F (leg 1), swept."""
    spec = dfa.spec
    return cancelling_poly(spec.nvars, {
        m: sweep_base_map(spec, dfa.twistor, CPoly.monomial(spec.nvars, m), leg)
        for m in itertools.product(range(3), repeat=spec.nvars)})


def embedded(T, legs, pos):
    """T at the slots pos, pos + 1, ... of a ``legs``-leg tensor, with unit
    legs at every other slot."""
    unit = _unit_id(T.nvars, T.rank)
    pre, post = (unit,) * pos, (unit,) * (legs - pos - T.legs)
    return _tensor(T.nvars, T.rank, legs,
                   {pre + k + post: c for k, c in T.num.items()}, T.den)


def wide_tensors(spec, legs):
    """(1 + e + e^2) and (e^2 - e + 1) on the first leg, whose product
    cancels e, e^2 and e^3 and then adds e^2 again; r at every slot (unit legs
    elsewhere); outer products of random elements with a unit at every slot."""
    rng = random.Random(legs)
    one = EnvElement.one(spec.nvars, spec.rank)
    e = EnvElement.gen(spec.nvars, spec.rank, 0)
    e2 = EnvElement.gen(spec.nvars, spec.rank, 0, 2)
    out = [TensorElement.of(first, *[one] * (legs - 1))
           for first in (one + e + e2, e2 - e + one)]
    r = arbitrary_exponent(spec)
    out += [embedded(r, legs, pos) for pos in range(legs - 1)]
    for pos in range(legs):
        out.append(TensorElement.of(*[
            one if l == pos else random_elem(spec, rng, 2)
            for l in range(legs)]))
    out.append(TensorElement.unit(spec.nvars, spec.rank, legs).scale(3))
    return out


def integer_layer_inputs(spec):
    """2-leg tensors with denominators 1, 3 and 12, the unit, a zero and
    3-leg tensors."""
    r = arbitrary_exponent(spec)
    gen = EnvElement.gen(spec.nvars, spec.rank, spec.rank - 1)
    x1 = EnvElement.from_poly(spec.rank, CPoly.var(spec.nvars, 0))
    two = [r, r.flip(), r.scale(Fraction(-3, 4)), r + r.flip().scale(3),
           TensorElement.unit(spec.nvars, spec.rank),
           TensorElement.of(gen, x1), r - r]
    return two, wide_tensors(spec, 3)[:4] + [
        embedded(r, 3, 1).scale(Fraction(1, 4))]


def loop_nest_inputs(dfa):
    """The 2-leg tensors of the product's loop nest: the integer-layer
    inputs and the twistor's coefficients."""
    return integer_layer_inputs(dfa.spec)[0] + list(dfa.twistor.coeffs[1:3])


def cocycle_sides(dfa):
    """The two sides (Delta (x) id)(F) F_12 and (id (x) Delta)(F) F_23 of
    the cocycle identity, order by order, as 3-leg Cauchy products on
    nested monomial keys: the coproduct at one leg of F_i
    (``nested_coproduct_leg``) times F_j on the two legs it leaves
    (``nested_tensor_mul``), summed in Fractions over i + j = n, so no code
    is shared with the splice of ``deform._cocycle_sides``."""
    spec = dfa.spec
    F = dfa.twistor.coeffs
    sides = []
    for leg in (0, 1):
        copro = [TensorElement(spec.nvars, spec.rank, 3, nested_values(
            [nested_coproduct_leg(spec, Fi, leg)])[0]) for Fi in F]
        wide = [embedded(Fj, 3, leg) for Fj in F]
        orders = []
        for n in range(len(F)):
            out = {}
            for i in range(n + 1):
                for key, c in nested_values([nested_tensor_mul(
                        spec, copro[i], wide[n - i])])[0].items():
                    _bump_term(out, key, c)
            orders.append(TensorElement(spec.nvars, spec.rank, 3, out))
        sides.append(orders)
    return list(zip(*sides))


def cocycle_classes(dfa, sides):
    """The classes of the pairs of sides ``sides`` on nested monomial keys
    (``nested_tensor_reduce``)."""
    return [tuple(nested_values([nested_tensor_reduce(dfa.spec, T)])[0]
                  for T in pair) for pair in sides]


def doubled(T):
    """T with its numerators and its denominator doubled: the same value
    over another denominator."""
    return _tensor(T.nvars, T.rank, T.legs,
                   {k: 2 * c for k, c in T.num.items()}, 2 * T.den)


def reduction_inputs(dfa):
    """Two-leg Takeuchi products and three-leg coproducts of lifts."""
    spec = dfa.spec
    one = EnvElement.one(spec.nvars, spec.rank)

    def mt(a, b):
        return tensor_mul(spec, a, b)

    out = []
    for u in sample_defelems(dfa, 2):
        lift = twisted_coproduct(dfa, u)
        for a in monomials_upto(spec.nvars, 2)[1:]:
            ta = dfa.target(a).map(lambda w: TensorElement.of(w, one))
            out.append(hseries_mul(lift, ta, mt))
        out.append(deformed_coproduct_leg(dfa, lift, 0))
    return out


def four_leg_inputs(dfa):
    """The coproduct at the first leg of 3-leg coproducts of lifts of the
    generators."""
    return [deformed_coproduct_leg(dfa, deformed_coproduct_leg(
        dfa, twisted_coproduct(dfa, u), 0), 0) for u in sample_defelems(dfa, 1)]


def decomposition_inputs(dfa, flavor):
    """Monomials at every order, random multi-order, multi-term series, and
    images map_F(a) e^beta, whose higher orders cancel exactly."""
    spec = dfa.spec
    n = dfa.order
    zero = EnvElement.zero(spec.nvars, spec.rank)
    out = []
    for k in range(n + 1):
        for key in low_monomials(spec):
            out.append(HSeries(n, [env_mono(spec, key) if j == k else zero
                                   for j in range(n + 1)], zero))
    rng = random.Random(11)
    for _ in range(8):
        out.append(HSeries(n, [random_elem(spec, rng, 2)
                               if rng.random() < 0.7 else zero
                               for _ in range(n + 1)], zero))
    for _ in range(4):
        images = {}
        for alpha, a in random_elem(spec, rng, 2).terms.items():
            images[alpha] = HSeries(n, [a] + [random_poly(spec, rng)] * n,
                                    CPoly.zero(spec.nvars))
        out.append(reexpand(dfa, images, flavor))
    return out


def mono_loop_inputs(spec):
    """Random elements, zero, one and x1 - x1 e_0, and the basis monomials
    of degree <= 2 with and without x1."""
    p, m = spec.nvars, spec.rank
    rng = random.Random(11)
    x1, e0 = _bump((0,) * p, 0), _bump((0,) * m, 0)
    elems = [random_elem(spec, rng, 2) for _ in range(4)] + [
        EnvElement.zero(p, m), EnvElement.one(p, m),
        EnvElement(p, m, {(0,) * m: CPoly.var(p, 0), e0: -CPoly.var(p, 0)})]
    keys = [(g, a) for a in pbw_indices(m, 2) for g in ((0,) * p, x1)]
    return elems, keys


def edge_functionals(ctx):
    """One that vanishes everywhere (no pieces), one whose pairings cancel
    on e_0 + e_last, an h^-1-rescaled value beside an unrescaled one
    (negative valuation, different tops), a Fraction scale and a dual
    product."""
    gens = [xi_functional(ctx, i) for i in range(ctx.spec.rank)]
    x1 = coordinate_functional(ctx, 0)
    return [JetElement(ctx.flavor), gens[0].sub(gens[-1]),
            gens[0].shift(-1).add(gens[-1]),
            gens[-1].add(x1).scale(Fraction(-3, 2)),
            jet_product(ctx, gens[0], gens[-1])]


def dual_functionals(ctx):
    """The duals of the PBW monomials of degree <= 2: together they meet
    every index a remainder can reach there."""
    one = HLaurent.const(CPoly.one(ctx.spec.nvars), ctx.order, ctx.zero_poly())
    return [JetElement(ctx.flavor, {delta: one})
            for delta in pbw_indices(ctx.spec.rank, 2)]


def table_functionals(ctx):
    """The generators, x1, a rescaled one, a scaled sum and a product."""
    gens = [xi_functional(ctx, i) for i in range(ctx.spec.rank)]
    x1 = coordinate_functional(ctx, 0)
    return gens + [x1, gens[0].shift(-1), gens[-1].add(x1).scale(3),
                   jet_product(ctx, gens[0], gens[-1])]


def edge_elements(spec):
    """Zero (no pieces), e_0 + e_last and e_0 - e_last, a coordinate and a
    Fraction coefficient, and random elements."""
    p, m = spec.nvars, spec.rank
    e0 = EnvElement.monomial(p, m, _bump((0,) * m, 0))
    el = EnvElement.monomial(p, m, _bump((0,) * m, m - 1))
    x1e0 = EnvElement.monomial(p, m, _bump((0,) * m, 0), CPoly.var(p, 0))
    rng = random.Random(14)
    return [EnvElement.zero(p, m), e0 + el, e0 - el,
            x1e0 - el.scale(CPoly.const(p, Fraction(2, 3)))] \
        + [random_elem(spec, rng, 2) for _ in range(2)]


def edge_series(ctx, elems):
    """Laurent series of elements: all zero (no pieces); zero at the
    valuation -1, so the first nonzero order is 0; a nonzero h^-1 term and
    a top below the truncation order; a top above it."""
    n = ctx.order
    zero = EnvElement.zero(ctx.spec.nvars, ctx.spec.rank)
    e0l, x1e0, r = elems[1], elems[3], elems[4]
    return [HLaurent(-1, n, [zero] * (n + 2), zero),
            HLaurent(-1, n, [zero, e0l, zero, x1e0] + [zero] * (n - 2), zero),
            HLaurent(-1, n - 1, [x1e0, zero, r] + [zero] * (n - 2), zero),
            HLaurent(0, n + 2, [r, x1e0] + [e0l] * (n + 1), zero)]


def pairing_keys(spec, gamma_deg=2, alpha_deg=2):
    return [(g, a) for g in pbw_indices(spec.nvars, gamma_deg)
            for a in pbw_indices(spec.rank, alpha_deg)]


def contexts(dfa, flavors, degree=2):
    return [JetContext(dfa, flavor, degree) for flavor in flavors]


# -- the envelope and its product table ------------------------------------------------


def per_spec(fn):
    """An oracle of (structure, *args) memoised per structure in the
    oracles' memo."""
    def memoised(spec, *args):
        memo = memo_of(spec)
        hit = memo.get((fn, *args))
        if hit is None:
            hit = memo[(fn, *args)] = fn(spec, *args)
        return hit
    return memoised


def _last_nonzero(alpha):
    for j in range(len(alpha) - 1, -1, -1):
        if alpha[j]:
            return j
    return None


@per_spec
def _mono_times_gen(spec, beta, i):
    """e^beta * e_i, rewriting e_j e_i -> e_i e_j - [e_i, e_j] for j > i."""
    j = _last_nonzero(beta)
    if j is None or j <= i:
        return EnvElement.monomial(spec.nvars, spec.rank, _bump(beta, i))
    beta2 = _bump(beta, j, -1)
    res = mul_gen_right(spec, _mono_times_gen(spec, beta2, i), j)
    for k, c in enumerate(spec.bracket_basis(i, j)):
        if not c.is_zero():
            head = mul_poly_right(
                spec, EnvElement.monomial(spec.nvars, spec.rank, beta2), c)
            res = res - mul_gen_right(spec, head, k)
    return res


def mul_gen_right(spec, u, i):
    """u * e_i."""
    out = EnvElement.zero(spec.nvars, spec.rank)
    for beta, c in u.terms.items():
        out = out + _mono_times_gen(spec, beta, i).scale(c)
    return out


@per_spec
def _mono_times_poly(spec, beta, a):
    """e^beta * a, rewriting e_j a -> a e_j + anchor(e_j)(a)."""
    if a.is_zero():
        return EnvElement.zero(spec.nvars, spec.rank)
    j = _last_nonzero(beta)
    if j is None:
        return EnvElement.from_poly(spec.rank, a)
    beta2 = _bump(beta, j, -1)
    head = mul_gen_right(spec, _mono_times_poly(spec, beta2, a), j)
    return head + _mono_times_poly(spec, beta2, spec.anchor_apply(j, a))


def mul_poly_right(spec, u, a):
    """u * a."""
    out = EnvElement.zero(spec.nvars, spec.rank)
    for beta, c in u.terms.items():
        out = out + _mono_times_poly(spec, beta, a).scale(c)
    return out


def rewriting_mul(spec, u, v):
    """u * v as u * b_beta * e_1^beta_1 * ... * e_m^beta_m, term by term."""
    out = EnvElement.zero(spec.nvars, spec.rank)
    for beta, b in v.terms.items():
        t = mul_poly_right(spec, u, b)
        for i in range(spec.rank):
            for _ in range(beta[i]):
                t = mul_gen_right(spec, t, i)
        out = out + t
    return out


def nested_leg_product(spec, la, lb):
    """The table entry of the basis monomials la and lb with its terms'
    ids read back as monomials ((gamma, alpha), q)."""
    return tuple((LEGS[i], q)
                 for i, q in leg_product(spec, leg_id(la), leg_id(lb)))


def leg_table_entries(spec):
    """The structure's nested product table as {(ia, ib): entry}."""
    return {(ia, ib): entry for ia, row in spec._leg_table.items()
            for ib, entry in row.items()}


def flat(rows):
    return {(g, a): q for a, row in rows.items() for g, q in row.items()}


def env_rows(w):
    return {alpha: dict(p.terms) for alpha, p in w.terms.items()}


def chain_act_mono(spec, key, a):
    """x^gamma e^alpha acting on a, applying the last generator first."""
    gamma, alpha = key
    val = a
    for i in range(spec.rank - 1, -1, -1):
        for _ in range(alpha[i]):
            val = spec.anchor_apply(i, val)
            if val.is_zero():
                return val
    if any(gamma):
        val = CPoly.monomial(spec.nvars, gamma) * val
    return val


# -- Fraction rows --------------------------------------------------------------------
#
# The envelope's loops as they ran before elements carried integer
# numerators by leg id: every product and sum of envelope elements summed
# into nested rows {alpha: {gamma: Fraction}}, one per h-order.  They read
# an element through its ``.terms`` view and are the references of the
# integer loops (the "/fraction-rows" entries of ``PARITY``).


def frac_mul_mono_into(rows, spec, w, key, c=1, right=True):
    """rows += c (w . x^gamma e^alpha) (``right``) or c (x^gamma e^alpha . w)
    on {alpha: {gamma: q}}, key = (gamma, alpha) and c rational; like terms
    merge and an emptied row is dropped; returns rows."""
    zeros = (0,) * spec.nvars
    if right:
        ib = leg_id(key)
    else:
        ia = leg_id((zeros, key[1]))
        shift = key[0] if any(key[0]) else None
    for alpha, poly in w.terms.items():
        if right:
            ia = leg_id((zeros, alpha))
        for gamma, q in poly.terms.items():
            if right:
                shift = gamma if any(gamma) else None
                entry = leg_product(spec, ia, ib)
            else:
                entry = leg_product(spec, ia, leg_id((gamma, alpha)))
            for i, r in entry:
                g, a = LEGS[i]
                if shift is not None:
                    g = tuple(map(add, g, shift))
                row = rows.setdefault(a, {})
                _bump_term(row, g, c * q * r)
                if not row:
                    del rows[a]
    return rows


def frac_add_rows(rows, coeffs, c):
    """rows[k] += c * coeffs[k] for envelope elements."""
    for acc, u in zip(rows, coeffs):
        for alpha, p in u.terms.items():
            row = acc.setdefault(alpha, {})
            for g, q in p.terms.items():
                _bump_term(row, g, c * q)
            if not row:
                del acc[alpha]


def frac_rows_series(spec, order, rows):
    """The series of envelope elements whose orders are the rows."""
    nvars = spec.nvars
    return HSeries(order, [EnvElement(nvars, spec.rank, {
        alpha: CPoly(nvars, r) for alpha, r in acc.items()}) for acc in rows],
        EnvElement.zero(nvars, spec.rank))


def frac_pbw_mul(spec, u, v):
    rows = {}
    for beta, b in v.terms.items():
        for gamma, q in b.terms.items():
            frac_mul_mono_into(rows, spec, u, (gamma, beta), q)
    return frac_rows_series(spec, 0, [rows]).coeffs[0]


def frac_defelem_mul(spec, a, b):
    """The Cauchy product, each order's products a_i b_j in one row."""
    n = a.order
    rows = [{} for _ in range(n + 1)]
    for i, ai in enumerate(a.coeffs):
        for row, bj in zip(rows[i:], b.coeffs):
            for beta, p in bj.terms.items():
                for gamma, q in p.terms.items():
                    frac_mul_mono_into(row, spec, ai, (gamma, beta), q)
    return frac_rows_series(spec, n, rows)


def frac_series_image(dfa, leg, aser):
    """s_F (leg 0) or t_F (leg 1) of a base series: sum_k h^k map(a_k),
    the images added into one row per order."""
    mapper = (dfa.source, dfa.target)[leg]
    n = dfa.order + 1
    rows = [{} for _ in range(n)]
    for k, ak in enumerate(aser.coeffs):
        if not ak.is_zero():
            frac_add_rows(rows[k:], mapper(ak).coeffs, 1)
    return frac_rows_series(dfa.spec, dfa.order, rows)


def frac_basis_decompose(dfa, u, flavor):
    """The back-substitution on Fraction rows: a term a h^k e^alpha goes
    into a_alpha and map_F(a) e^alpha h^k comes off the remainder."""
    spec = dfa.spec
    nvars = spec.nvars
    n = dfa.order
    zeros_g = (0,) * nvars
    zero_p = CPoly.zero(nvars)
    mapper = dfa.source if flavor == "source" else dfa.target
    remaining = [{alpha: dict(p.terms) for alpha, p in uk.terms.items()}
                 for uk in u.coeffs]
    coeffs = {}
    for k in range(n + 1):
        layer = remaining[k]
        for alpha in sorted(layer):
            terms = layer[alpha]
            coeffs.setdefault(alpha, [zero_p] * (n + 1))[k] = \
                CPoly(nvars, terms)
            if k == n:
                continue
            for gamma, c in terms.items():
                mapped = mapper(CPoly.monomial(nvars, gamma)).coeffs
                for j in range(1, n - k + 1):
                    frac_mul_mono_into(remaining[k + j], spec, mapped[j],
                                       (zeros_g, alpha), -c)
    return {beta: HSeries(n, cs, zero_p) for beta, cs in coeffs.items()}


def frac_counit_contract(dfa, HT, leg):
    """leg 0: sum s_F(eps(w1)) . w2; leg 1: sum t_F(eps(w2)) . w1, one row
    per order."""
    spec = dfa.spec
    n = dfa.order
    mapper = dfa.source if leg == 0 else dfa.target
    rows = [{} for _ in range(n + 1)]
    for k, Tk in enumerate(HT.coeffs):
        for key, c in Tk.terms.items():
            g_eps, a_eps = key[leg]
            if any(a_eps):
                continue
            eps = mapper(CPoly.monomial(spec.nvars, g_eps)).coeffs
            for acc, w in zip(rows[k:], eps):
                frac_mul_mono_into(acc, spec, w, key[1 - leg], c)
    return frac_rows_series(spec, n, rows)


def frac_product_rows(spec, W, m, mono_right=True):
    """The nonempty rows (q, {alpha: {gamma: c}}) of W . m or m . W."""
    out = []
    for q, w in enumerate(W.coeffs, W.val):
        row = frac_mul_mono_into({}, spec, w, m, 1, mono_right)
        if row:
            out.append((q, row))
    return out


def assert_env_integral(u):
    """An element's numerators are nonzero ints over a positive int
    denominator in lowest terms; returns u."""
    assert type(u.den) is int and u.den > 0
    assert all(type(c) is int and c for c in u.num.values())
    assert gcd(u.den, *u.num.values()) == 1
    return u


def integral_values(x):
    """Every element of x (an element, a series of elements, a list or a
    dict of them) integral by ``assert_env_integral``; returns x."""
    if isinstance(x, EnvElement):
        assert_env_integral(x)
    elif isinstance(x, (HSeries, HLaurent)):
        integral_values(list(x.coeffs))
    elif isinstance(x, dict):
        integral_values(list(x.values()))
    elif isinstance(x, (list, tuple)):
        for y in x:
            integral_values(y)
    return x


# -- deformations ---------------------------------------------------------------


def reexpand(dfa, decomposition, flavor="source"):
    """Inverse of basis_decompose, for round-trip checks: sum_beta
    map_F(a_beta) e^beta, one Fraction row per order."""
    spec = dfa.spec
    zeros = (0,) * spec.nvars
    rows = [{} for _ in range(dfa.order + 1)]
    mapper = dfa.source_series if flavor == "source" else dfa.target_series
    for beta, aser in decomposition.items():
        for acc, w in zip(rows, mapper(aser).coeffs):
            frac_mul_mono_into(acc, spec, w, (zeros, beta))
    return frac_rows_series(spec, dfa.order, rows)


def sweep_base_map(spec, twistor, a, leg):
    """s_F(a) (leg 0) or t_F(a) (leg 1), term by term: the legs ``leg`` of
    F act on a, the other legs multiply: c x^g e^b (x) x^gamma e^alpha
    (acting leg first) adds c x^(g + gamma) (e^b . a) e^alpha to the
    order's row."""
    rows = []
    for Fn in twistor.coeffs:
        acc = {}
        for key, c in Fn.terms.items():
            (g, b), (gamma, alpha) = key[leg], key[1 - leg]
            _act_into(acc.setdefault(alpha, {}), spec,
                      (tuple(map(add, g, gamma)), b), a, c)
        rows.append(acc)
    return frac_rows_series(spec, twistor.order, rows)


def star_from(spec, F, a, b):
    """a *_F b as an h-expansion (list of CPoly per order): the legs of F
    act on a and on b, one generator at a time (``chain_act_mono``)."""
    out = []
    for Fn in F.coeffs:
        acc = CPoly.zero(spec.nvars)
        for key, c in Fn.terms.items():
            va = chain_act_mono(spec, key[0], a)
            if va.is_zero():
                continue
            vb = chain_act_mono(spec, key[1], b)
            if vb.is_zero():
                continue
            acc = acc + va * vb * c
        out.append(acc)
    return out


def chain_series_image(dfa, mapper, aser):
    """sum_k h^k mapper(a_k) as the chain of shifted series additions."""
    out = hs_zero(dfa.order, EnvElement.zero(dfa.spec.nvars, dfa.spec.rank))
    for k, ak in enumerate(aser.coeffs):
        if not ak.is_zero():
            out = out + mapper(ak).shift(k)
    return out


def tensor_mul_legs(spec, s, t):
    """``tensor_mul`` for any number of legs, by the general loop."""
    s._check(t)
    return _tensor_cleared(s.nvars, s.rank, s.legs,
                           mul_into_legs({}, spec, s, t, 1), s.den * t.den)


def conjugate_legs(dfa, S, leg):
    """G . S . F for a tensor series S, with F and G at legs leg, leg+1,
    as the two Cauchy products, whatever the twistor, by the general loop
    ``mul_into_legs`` (``tensor_mul_legs``)."""
    spec = dfa.spec
    legs = S.zero.legs

    def mt(a, b):
        return tensor_mul_legs(spec, a, b)

    G = dfa.G.map(lambda t: embedded(t, legs, leg))
    F = dfa.twistor.map(lambda t: embedded(t, legs, leg))
    return hseries_mul(G, hseries_mul(S, F, mt), mt)


def conjugated_lift(dfa, key):
    """G . Delta(x^gamma e^alpha) . F, the coproduct conjugated whole."""
    spec = dfa.spec
    zero = TensorElement.zero(spec.nvars, spec.rank, 2)
    return conjugate_legs(
        dfa, hs_const(copro_basis(spec, leg_id(key)), dfa.order, zero), 0)


def spliced_coproduct_leg(dfa, HT, leg):
    """The twisted coproduct at leg ``leg`` of a lifted tensor series: the
    classical coproduct spliced into the leg on nested monomial keys
    (``nested_coproduct_leg``, so no code is shared with the engine's
    splice), then conjugated by F and G at that leg and the next."""
    spec = dfa.spec
    legs = HT.zero.legs + 1
    return conjugate_legs(dfa, HT.map(lambda t: TensorElement(
        spec.nvars, spec.rank, legs,
        nested_values([nested_coproduct_leg(spec, t, leg)])[0])), leg)


def summed_twisted_coproduct(dfa, u):
    """G . Delta(u) . F as the sum of one whole series per basis term of
    u: the cached lift of its monomial, scaled and shifted to its order."""
    spec = dfa.spec
    zero = TensorElement.zero(spec.nvars, spec.rank, 2)
    out = hs_zero(dfa.order, zero)
    for k, uk in enumerate(u.coeffs):
        for alpha, poly in uk.terms.items():
            for gamma, q in poly.terms.items():
                piece = dfa.lift_mono((gamma, alpha))
                out = out + piece.map(lambda t: t.scale(q)).shift(k)
    return out


def nested_project_leg(dfa, HT, leg, flavor):
    """The projection w -> w - map_F(eps(w)) at one leg of a tensor
    series, on nested monomial keys read from ``.terms``."""
    spec = dfa.spec
    n = dfa.order
    mapper = dfa.source if flavor == "source" else dfa.target
    zeros_a = (0,) * spec.rank
    acc = [dict() for _ in range(n + 1)]
    for k, Tk in enumerate(HT.coeffs):
        for key, c in Tk.terms.items():
            gamma, alpha = key[leg]
            _bump_term(acc[k], key, c)
            if alpha != zeros_a:
                continue
            ser = mapper(CPoly.monomial(spec.nvars, gamma))
            for j, env in enumerate(ser.coeffs):
                if k + j > n:
                    break
                for a2, p2 in env.terms.items():
                    for g2, q2 in p2.terms.items():
                        k2 = key[:leg] + ((g2, a2),) + key[leg + 1:]
                        _bump_term(acc[k + j], k2, -c * q2)
    legs = HT.zero.legs
    return HSeries(n, [TensorElement(spec.nvars, spec.rank, legs, d)
                       for d in acc], HT.zero)


def whole_decompose(dfa, key, flavor):
    """The decomposition of the whole monomial x^gamma e^alpha by one
    ``basis_decompose``, memoised per deformation apart from its own
    cache.  The pairing and reduction oracles read it, so they share no
    code with ``decompose_mono``'s composition."""
    memo = memo_of(dfa)
    hit = memo.get(("whole", flavor, key))
    if hit is None:
        u = defelem_from_env(dfa.spec, env_mono(dfa.spec, key), dfa.order)
        hit = memo["whole", flavor, key] = basis_decompose(dfa, u, flavor)
    return hit


def backsubstitution_decompose(dfa, u, flavor):
    """Map each term's whole polynomial, multiply every order by e^alpha,
    shift by k and subtract the whole series."""
    spec = dfa.spec
    n = dfa.order
    zero_p = CPoly.zero(spec.nvars)
    remaining = u
    coeffs = {}
    mapper = dfa.source if flavor == "source" else dfa.target
    for k in range(n + 1):
        layer = remaining.coeffs[k]
        for alpha, poly in sorted(layer.terms.items()):
            cur = coeffs.setdefault(alpha, [zero_p] * (n + 1))
            cur[k] = cur[k] + poly
            mono = EnvElement.monomial(spec.nvars, spec.rank, alpha)
            correction = mapper(poly).map(
                lambda w: pbw_mul(spec, w, mono)).shift(k)
            remaining = remaining - correction
    return {beta: HSeries(n, cs, zero_p) for beta, cs in coeffs.items()}


def impure_leg_product(dfa, key, flavor):
    """Whether some e^beta e^alpha, e^beta over the decomposition of x^gamma
    alone, has a term x^g e^delta with g != 0: the keys whose pairing
    ``jets._pair_mono`` must decompose whatever the functional's table."""
    spec = dfa.spec
    gamma, alpha = key
    zeros = (0,) * spec.nvars
    a = leg_id((zeros, alpha))
    return any(any(LEGS[i][0])
               for beta in dfa.decompose_mono((gamma, (0,) * spec.rank), flavor)
               for i, _ in leg_product(spec, leg_id((zeros, beta)), a))


def uncached_reduce_series(dfa, HT):
    out = HT
    for leg in range(HT.zero.legs - 1):
        out = uncached_reduce_leg(dfa, out, leg)
    return out


def uncached_reduce_leg(dfa, HT, leg):
    """Move the coefficient of every leg-`leg` monomial onto the next leg,
    decomposing it through t_F and mapping through s_F (once per monomial
    and deformation, in the oracles' memo), and multiplying by the next
    leg with ``pbw_mul`` term by term."""
    spec = dfa.spec
    n = dfa.order
    zeros_g = (0,) * spec.nvars
    acc = [dict() for _ in range(n + 1)]
    memo = memo_of(dfa)
    for k, Tk in enumerate(HT.coeffs):
        for key, c in Tk.terms.items():
            w = key[leg]
            if w[0] == zeros_g:
                _bump_term(acc[k], key, c)
                continue
            nxt = key[leg + 1]
            moved = memo.get(("moved", w))
            if moved is None:
                moved = memo["moved", w] = [
                    (beta, chain_series_image(dfa, dfa.source, aser))
                    for beta, aser in whole_decompose(dfa, w, "target").items()]
            for beta, sser in moved:
                for j, w_env in enumerate(sser.coeffs):
                    if k + j > n or w_env.is_zero():
                        continue
                    prod = memo.get(("prod", beta, j, w, nxt))
                    if prod is None:
                        prod = memo["prod", beta, j, w, nxt] = pbw_mul(
                            spec, w_env, env_mono(spec, nxt))
                    for alpha2, poly2 in prod.terms.items():
                        for g2, q2 in poly2.terms.items():
                            k2 = key[:leg] + ((zeros_g, beta), (g2, alpha2)) \
                                + key[leg + 2:]
                            _bump_term(acc[k + j], k2, c * q2)
    legs = HT.zero.legs
    coeffs = [TensorElement(spec.nvars, spec.rank, legs, d) for d in acc]
    return HSeries(n, coeffs, TensorElement.zero(spec.nvars, spec.rank, legs))


# -- tensor products ---------------------------------------------------------------


def mul_into_legs(out, spec, s, t, m):
    """out += m * (numerators of s times those of t) for any number of
    legs, each leg product looked up per pair of terms: the oracle of the
    fixed loop nests of ``tensorspace._mul_into``, adding the same terms in
    the same order."""
    unit = _unit_id(s.nvars, s.rank)
    table = spec._leg_table
    tnum = t.num.items()
    for ka, ca in s.num.items():
        if m != 1:
            ca *= m
        for kb, cb in tnum:
            factors = []
            for la, lb in zip(ka, kb):
                if la == unit:
                    factors.append(((lb, 1),))
                elif lb == unit:
                    factors.append(((la, 1),))
                else:
                    f = table[la].get(lb)
                    factors.append(leg_product(spec, la, lb) if f is None else f)
            expand_product(out, factors, ca * cb)
    return out


def expand_product(out, legchoices, coeff):
    """Accumulate the outer product of per-leg basis terms into a term dict."""
    if not all(legchoices):
        return
    for combo in itertools.product(*legchoices):
        key = tuple(k for k, _ in combo)
        c = coeff
        for _, q in combo:
            if q != 1:
                c *= q
        _bump_term(out, key, c)


def nested(T):
    """(terms, den) of a tensor, its keys read back as monomials, in the
    tensor's own order."""
    return [(tuple(LEGS[i] for i in k), c) for k, c in T.num.items()], T.den


def nested_cleared(out, den):
    """(terms, den) of accumulated int or Fraction values over den."""
    if any(type(c) is not int for c in out.values()):
        out, d = _common_den(out)
        den *= d
    return list(out.items()), den


def nested_values(coeffs):
    """The per-order {monomial key: Fraction} of (terms, den) pairs."""
    return [{key: Fraction(c, den) for key, c in terms} for terms, den in coeffs]


def nested_tensor_mul(spec, s, t):
    """The product on nested keys: every leg product through
    ``nested_leg_product`` and ``expand_product``, the numerators over
    the product of the denominators."""
    out = {}
    for ka, ca in nested(s)[0]:
        for kb, cb in nested(t)[0]:
            expand_product(out, [nested_leg_product(spec, x, y)
                                 for x, y in zip(ka, kb)], ca * cb)
    return nested_cleared(out, s.den * t.den)


def nested_tensor_reduce(spec, T):
    out = {}
    zeros = (0,) * spec.nvars
    for key, c in nested(T)[0]:
        total = [0] * spec.nvars
        newkey = []
        for gamma, alpha in key[:-1]:
            for j, g in enumerate(gamma):
                total[j] += g
            newkey.append((zeros, alpha))
        lgamma, lalpha = key[-1]
        newkey.append((tuple(a + b for a, b in zip(total, lgamma)), lalpha))
        _bump_term(out, tuple(newkey), c)
    return list(out.items()), T.den


def nested_copro_basis(spec, key):
    gamma, alpha = key
    terms, den = nested(_copro_mono(spec, alpha))
    if not any(gamma):
        return terms, den
    return [(((tuple(map(add, g, gamma)), al), right), c)
            for ((g, al), right), c in terms], den


def nested_coproduct_leg(spec, T, leg):
    terms, tden = nested(T)
    pieces = {}
    for key, _ in terms:
        if key[leg] not in pieces:
            pieces[key[leg]] = nested_copro_basis(spec, key[leg])
    den = lcm(*[d for _, d in pieces.values()])
    out = {}
    for key, c in terms:
        piece, pden = pieces[key[leg]]
        if pden != den:
            c *= den // pden
        for k2, c2 in piece:
            _bump_term(out, key[:leg] + k2 + key[leg + 1:], c * c2)
    return list(out.items()), tden * den


def basis_terms(u):
    """The monomials q x^gamma e^alpha of u as [((gamma, alpha), q)], in
    the order of its numerators."""
    return [(LEGS[i], Fraction(c, u.den)) for i, c in u.num.items()]


def nested_migrants(dfa, w):
    memo = memo_of(dfa)
    hit = memo.get(("migrants", w))
    if hit is not None:
        return hit
    moved = [(beta, [basis_terms(u) for u in dfa.source_series(aser).coeffs])
             for beta, aser in whole_decompose(dfa, w, "target").items()]
    d = lcm(*[q.denominator for _, orders in moved
              for terms in orders for _, q in terms])
    hit = memo["migrants", w] = d, [
        (beta, [tuple((key, q.numerator * (d // q.denominator))
                      for key, q in terms) for terms in orders])
        for beta, orders in moved]
    return hit


def nested_reduce_leg(dfa, HT, leg):
    """One reduction step on nested keys: a leg x^gamma e^alpha with
    gamma != 0 moves through the migrants of x^gamma, and each term
    x^g e^delta of e^beta e^alpha with g != 0 goes round another pass."""
    spec = dfa.spec
    n = dfa.order
    zeros_g, zeros_a = (0,) * spec.nvars, (0,) * spec.rank
    coeffs = [nested(Tk) for Tk in HT.coeffs]
    den = lcm(*[d for _, d in coeffs])
    pending = [(terms, den // tden) for terms, tden in coeffs]
    acc = [dict() for _ in range(n + 1)]
    while pending:
        moving = {}
        for terms, _ in pending:
            for key, _ in terms:
                gamma = key[leg][0]
                if gamma != zeros_g and gamma not in moving:
                    moving[gamma] = nested_migrants(dfa, (gamma, zeros_a))
        scale = lcm(*[d for d, _ in moving.values()])
        den *= scale
        for out in acc:
            for key in out:
                out[key] *= scale
        carry = [dict() for _ in range(n + 1)]
        for k, (terms, up) in enumerate(pending):
            for key, c in terms:
                gamma, alpha = key[leg]
                if gamma == zeros_g:
                    _bump_term(acc[k], key, c * up * scale)
                    continue
                d, moved = moving[gamma]
                c *= up * scale // d
                nxt = key[leg + 1]
                head, tail = key[:leg], key[leg + 2:]
                for beta, orders in moved:
                    for l, q in nested_leg_product(spec, (zeros_g, beta),
                                                   (zeros_g, alpha)):
                        dest = acc if l[0] == zeros_g else carry
                        for j, terms_j in enumerate(orders):
                            if k + j > n:
                                break
                            for wl, cw in terms_j:
                                for l2, q2 in nested_leg_product(spec, wl, nxt):
                                    _bump_term(dest[k + j],
                                               head + (l, l2) + tail,
                                               c * q * cw * q2)
        pending = [(list(t.items()), 1) for t in carry] if any(carry) else None
    return [nested_cleared(d, den) for d in acc]


def carries(dfa, HT, leg):
    """Whether reducing ``leg`` of HT meets a product e^beta e^alpha with a
    term x^g e^delta, g != 0, for some beta of the migrants of x^gamma."""
    spec = dfa.spec
    zeros_g, zeros_a = (0,) * spec.nvars, (0,) * spec.rank
    return any(
        any(orders) and any(l[0] != zeros_g for l, _ in nested_leg_product(
            spec, (zeros_g, beta), (zeros_g, key[leg][1])))
        for T in HT.coeffs for key, _ in nested(T)[0] if key[leg][0] != zeros_g
        for beta, orders in nested_migrants(dfa, (key[leg][0], zeros_a))[1])


def frac_add(s, t, sign=1):
    out = dict(s.terms)
    for k, c in t.terms.items():
        _bump_term(out, k, sign * c)
    return out


def frac_scale(T, c):
    c = Fraction(c)
    return {k: v * c for k, v in T.terms.items() if v * c}


def frac_tensor_of(*factors):
    """The outer product of EnvElements as ``Fraction`` products from a
    ``Fraction(1)`` start, one factor at a time."""
    first = factors[0]
    terms = {(): Fraction(1)}
    for u in factors:
        legs = [(leg_id((gamma, alpha)), q) for alpha, poly in u.terms.items()
                for gamma, q in poly.terms.items()]
        new = {}
        for key, c in terms.items():
            for i, q in legs:
                k2 = key + (i,)
                cur = new.get(k2)
                val = c * q
                new[k2] = val if cur is None else cur + val
        terms = new
    num, den = _common_den(terms)
    return _tensor(first.nvars, first.rank, len(factors), num, den)


@per_spec
def frac_copro_mono(spec, alpha):
    """Delta(e^alpha) as the product of the primitive (e_i (x) 1 + 1 (x) e_i)
    over the generators of e^alpha, in Fractions."""
    one = EnvElement.one(spec.nvars, spec.rank)
    out = TensorElement.unit(spec.nvars, spec.rank)
    for i, a in enumerate(alpha):
        gen = EnvElement.gen(spec.nvars, spec.rank, i)
        prim = TensorElement(spec.nvars, spec.rank, 2, frac_add(
            TensorElement.of(gen, one), TensorElement.of(one, gen)))
        for _ in range(a):
            prod = {}
            for ka, ca in out.terms.items():
                for kb, cb in prim.terms.items():
                    expand_product(prod, [nested_leg_product(spec, x, y)
                                          for x, y in zip(ka, kb)], ca * cb)
            out = TensorElement(spec.nvars, spec.rank, 2, prod)
    return out


def frac_coproduct_leg(spec, T, leg):
    """Delta(x^gamma e^alpha) as Delta(e^alpha) with its left leg shifted by
    the monomial x^gamma."""
    out = {}
    for key, c in T.terms.items():
        gamma, alpha = key[leg]
        for ((g, al), right), c2 in frac_copro_mono(spec, alpha).terms.items():
            shifted = ((tuple(map(add, g, gamma)), al), right)
            _bump_term(out, key[:leg] + shifted + key[leg + 1:], c * c2)
    return out


def assert_integral(T):
    """Integer numerators, none zero, over one positive int denominator."""
    assert type(T.den) is int and T.den > 0
    assert all(type(c) is int and c for c in T.num.values())
    return T


# -- jet duals ---------------------------------------------------------------------


def window(v):
    return v.val, v.top, v.coeffs


def windows(table):
    return {k: window(v) for k, v in table.items()}


def _dual_products(dfa, flavor, degree):
    """{(path, i, j, beta): value} of the dual product of every two of the
    xi_i and coordinate functionals, at every PBW index up to ``degree``,
    read from ``jet_product``'s table and from ``jet_product_eval``."""
    ctx = JetContext(dfa, flavor, degree)
    spec = dfa.spec
    base = [xi_functional(ctx, i) for i in range(spec.rank)] \
        + [coordinate_functional(ctx, j) for j in range(spec.nvars)]
    out = {}
    for (i, lam), (j, mu) in itertools.product(enumerate(base), repeat=2):
        table = jet_product(ctx, lam, mu, degree)
        for beta in pbw_indices(spec.rank, degree):
            out["jet_product", i, j, beta] = table.value(ctx, beta)
            out["jet_product_eval", i, j, beta] = jets.jet_product_eval(
                ctx, lam, mu, beta)
    return out


def truncation_mismatches(build, order, flavor, degree=3,
                          values=_dual_products):
    """The truncation-consistency oracle, for the dual product by default:
    every coefficient that a value at truncation ``order`` claims (its
    orders val..top) and that the same value at ``order + 2`` does not
    confirm, as (path, indices..., n).  A value may be less precise than it
    could be, never wrong.  ``build(N)`` is the deformation at truncation
    N and ``values(dfa, flavor, degree)`` the {key: value} compared; the
    oracle needs no reference implementation, so it shares no code with
    the engine's window bookkeeping."""
    return _contradicted(values(build(order), flavor, degree),
                         values(build(order + 2), flavor, degree))


def _contradicted(low, high):
    """(key..., n) of every coefficient a value of ``low`` claims (its
    orders val..top) that the same key of ``high``, the run at a longer
    truncation, does not confirm; a key ``high`` lacks reads as zero up to
    every order."""
    out = []
    for key, value in low.items():
        other = high.get(key)
        for n in range(value.val, value.top + 1):
            if other is None:
                if not value.coeff(n).is_zero():
                    out.append(key + (n,))
            elif n > other.top or value.coeff(n) != other.coeff(n):
                out.append(key + (n,))
    return out


def functional_mismatches(build, order, flavor, degree=3):
    """The truncation-consistency oracle of ``truncation_mismatches`` for
    the jet dual's pairings and functional tables (``_functional_values``)
    at truncation ``order`` against ``order + 2``, as (path, indices...,
    key, n)."""
    return truncation_mismatches(build, order, flavor, degree,
                                 _functional_values)


def _functional_values(dfa, flavor, degree):
    """{(path, indices..., key): value} on the inputs xi_i, the coordinate
    functionals, the unit and the rescaled h^-1 xi_i: ``jet_pair`` of each
    on every product of ``drinfeld.augmentation_products(dfa, 2)``, the
    table of ``jet_coproduct_functional`` of each and of
    ``tensor_functional_from_pair`` of every two, and the two tables of
    ``jet_source_target`` of the unit and of each coordinate, all to
    ``degree``."""
    ctx = JetContext(dfa, flavor, degree)
    spec = dfa.spec
    xis = [xi_functional(ctx, i) for i in range(spec.rank)]
    inputs = xis + [coordinate_functional(ctx, j) for j in range(spec.nvars)] \
        + [unit_functional(ctx)] + [xi.shift(-1) for xi in xis]
    products = [u for _, u in drinfeld.augmentation_products(dfa, 2)]
    out = {}
    for i, lam in enumerate(inputs):
        for k, u in enumerate(products):
            out["jet_pair", i, k, None] = jet_pair(ctx, lam, u)
        for key, v in jet_coproduct_functional(ctx, lam, degree).items():
            out["jet_coproduct_functional", i, key] = v
        for j, mu in enumerate(inputs):
            for key, v in tensor_functional_from_pair(
                    ctx, lam, mu, degree).items():
                out["tensor_functional_from_pair", i, j, key] = v
    base = [CPoly.one(spec.nvars)] \
        + [CPoly.var(spec.nvars, j) for j in range(spec.nvars)]
    for i, a in enumerate(base):
        for path, functional in zip(("source", "target"),
                                    jets.jet_source_target(ctx, a, degree)):
            for beta, v in functional.table.items():
                out["jet_source_target", path, i, beta] = v
    return out


def pair_image_values(dfa, flavor, degree):
    """{("_pair_image", entry, i, w, j, m, right): value} of
    ``jets._pair_image`` on its own: mu_j(W . m) (``right``) and
    mu_j(m . W) for each first pairing W of an entry of ``jets._image``
    (a dual product's lift leg w, and a tensor functional's e^beta) and
    of ``jets._monomial`` (e^beta), both values of ``right`` on each, a
    fresh rows dict per entry and ``right``; lam_i and mu_j range over
    the first and last xi, h^-1 xi_1 and x1, w over x^gamma e^alpha with
    gamma 0 or x1 and |alpha| <= 1 (|alpha| <= ``degree`` for e^beta), m
    over 1, e_1, e_last and x1 e_1."""
    ctx = JetContext(dfa, flavor, degree)
    spec = dfa.spec
    p, rank = spec.nvars, spec.rank
    xis = [xi_functional(ctx, i) for i in (0, rank - 1)]
    funcs = xis + [xis[0].shift(-1), coordinate_functional(ctx, 0)]
    zero, e1 = (0,) * p, _bump((0,) * rank, 0)
    gammas = [zero, _bump(zero, 0)]
    leaves = [(g, a) for g in gammas for a in pbw_indices(rank, 1)]
    monos = [(zero, (0,) * rank), (zero, e1),
             (zero, _bump((0,) * rank, rank - 1)), (gammas[1], e1)]
    entries = [(("monomial", None, beta), jets._monomial(ctx, beta)[0])
               for beta in pbw_indices(rank, degree)]
    for i, lam in enumerate(funcs):
        entries += [(("lift", i, w), jets._image(lam, ctx, w, True)[0])
                    for w in leaves]
        entries += [(("functional", i, (zero, beta)), jets._image(
            lam, ctx, (zero, beta), False)[0])
            for beta in pbw_indices(rank, degree)]
    out = {}
    for (kind, i, w), W in entries:
        if W is None:
            continue
        for right in (True, False):
            image = (W, {})
            for j, mu in enumerate(funcs):
                for m in monos:
                    out["_pair_image", kind, i, w, j, m, right] = \
                        jets._pair_image(ctx, mu, image, m, right)
    return out


def rescaled_values(dfa, flavor, degree):
    """{(path, indices..., key): value} of ``drinfeld``'s h-rescaled
    functionals: the table of ``jet_product`` of every two generators
    h^-1 xi_i of ``VeeAlgebroid``, ``jet_pair`` of each generator and
    each such product on every member of ``hprime_basis``, and
    ``jet_pair(powers[beta], member)`` for the divided xi-powers the basis
    is solved against, all to ``degree``."""
    ctx = JetContext(dfa, flavor, degree)
    v = drinfeld.VeeAlgebroid(ctx)
    gens = [v.gens[name] for name in v.gen_names]
    basis = drinfeld.hprime_basis(ctx, degree)
    powers = divided_xi_powers(ctx, degree)
    out = {}
    funcs = [(("gen", i), g) for i, g in enumerate(gens)]
    for (i, lam), (j, mu) in itertools.product(enumerate(gens), repeat=2):
        prod = jet_product(ctx, lam, mu, degree)
        funcs.append((("product", i, j), prod))
        for beta, val in prod.table.items():
            out["jet_product", i, j, beta] = val
    funcs += [(("power", beta), f) for beta, f in powers.items()]
    for key, lam in funcs:
        for alpha, member in basis.items():
            out[("jet_pair",) + key + (alpha,)] = jet_pair(ctx, lam, member)
    return out


def chain_laurent_mul(x, y, mulser, series_order):
    """laurent_mul as a chain of per-order coefficient additions."""
    val = x.val + y.val
    top = min(x.top + y.val, y.top + x.val, series_order + x.val + y.val)
    if top < val:
        raise ConfigError("laurent product has empty certified window")
    out = [x.zero] * (top - val + 1)
    for i, xi in enumerate(x.coeffs, x.val):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y.coeffs, y.val):
            if i + j > top:
                break
            if yj.is_zero():
                continue
            for n, c in enumerate(mulser(xi, yj), i + j):
                if n > top:
                    break
                if not c.is_zero():
                    out[n - val] = out[n - val] + c
    return HLaurent(val, top, out, x.zero)


def chain_zero(ctx, top=None):
    """A fresh zero up to ``top`` (the truncation order by default)."""
    return HLaurent.zero_upto(ctx.order if top is None else top,
                              CPoly.zero(ctx.spec.nvars))


def chain_pair_mono(ctx, lam, key):
    """lam on a basis monomial: the star pairings over the whole flavor
    decomposition, added to a zero up to the truncation order; memoised
    per context and (lam, key) in the oracles' memo."""
    memo = memo_of(ctx)
    hit = memo.get((lam, key))
    if hit is not None:
        return hit
    gamma, alpha = key
    if not any(gamma):
        out = lam.value(ctx, alpha)
    else:
        flavor = "source" if lam.flavor == LEFT else "target"
        out = chain_zero(ctx)
        for beta, aser in whole_decompose(ctx.dfa, key, flavor).items():
            lv = lam.value(ctx, beta)
            if lv.is_zero():
                continue
            al = HLaurent.from_hseries(aser)
            x, y = (al, lv) if lam.flavor == LEFT else (lv, al)
            out = out + chain_laurent_mul(x, y, ctx.dfa.star_coeffs,
                                          ctx.order)
    memo[lam, key] = out
    return out


def chain_pair_env(ctx, lam, w):
    """lam on a normal-form element: a zero plus each scaled pairing."""
    out = chain_zero(ctx)
    for alpha, poly in w.terms.items():
        for gamma, q in poly.terms.items():
            v = chain_pair_mono(ctx, lam, (gamma, alpha))
            out = out + (v if q == 1 else v.map(lambda t: t * q))
    return out


def chain_pair_env_laurent(ctx, lam, W):
    """lam on a Laurent series: the sum of the shifted pairings of its
    nonzero coefficients, or a zero up to W's top when there are none."""
    out = None
    for q in range(W.val, W.top + 1):
        w = W.coeff(q)
        if w.is_zero():
            continue
        piece = chain_pair_env(ctx, lam, w).shift(q)
        out = piece if out is None else out + piece
    if out is None:
        return chain_zero(ctx, W.top)
    return out


def pair_element(ctx, lam, w):
    """lam on a normal-form element w: ``jets.jet_pair`` on the constant
    series w up to the truncation order."""
    zero = EnvElement.zero(ctx.spec.nvars, ctx.spec.rank)
    return jet_pair(ctx, lam, hs_const(w, ctx.order, zero))


def pair_laurent(ctx, lam, W):
    """lam on a Laurent series W of normal-form elements, by
    k[[h]]-linearity: ``jets.jet_pair`` on the series h^-val W, whose
    orders 0..top-val are W's, shifted back by val."""
    return jet_pair(ctx, lam, HSeries(W.top - W.val, W.coeffs, W.zero)) \
        .shift(W.val)


def unmemoised_images(ctx, lam, arg):
    """The dual product's body up to the pairing with mu: for every lift
    term on whose paired leg lam does not vanish, (k, c, W) with W lam's
    chain pairing mapped and multiplied by the other leg with ``pbw_mul``.
    W depends on lam and the two legs alone, so it is memoised per
    context in the oracles' memo, as is the list of each (lam, arg)."""
    memo = memo_of(ctx)
    hit = memo.get(("images", lam, arg))
    if hit is not None:
        return hit
    spec = ctx.spec
    left = lam.flavor == LEFT
    mapper = ctx.dfa.target if left else ctx.dfa.source
    out = memo["images", lam, arg] = []
    for k, Tk in enumerate(ctx.dfa.lift_mono(arg).coeffs):
        for (w1, w2), c in Tk.terms.items():
            paired, other = (w2, w1) if left else (w1, w2)
            W = memo.get(("W", lam, paired, other), False)
            if W is False:
                v = chain_pair_mono(ctx, lam, paired)
                m = env_mono(spec, other)
                W = memo["W", lam, paired, other] = None if v.is_zero() \
                    else _apply_series_map(ctx, v, mapper).map(
                        lambda t: pbw_mul(spec, t, m))
            if W is not None:
                out.append((k, c, W))
    return out


def unmemoised_sum(ctx, mu, images):
    """sum c h^k mu(W) over the images, as a chain of additions; each
    mu(W) memoised per context."""
    memo = memo_of(ctx)
    out = None
    for k, c, W in images:
        P = memo.get(("pair", mu, id(W)))
        if P is None:
            P = memo["pair", mu, id(W)] = chain_pair_env_laurent(ctx, mu, W)
        piece = P.shift(k).map(lambda t: t * c)
        out = piece if out is None else out + piece
    return out if out is not None else chain_zero(ctx)


def pair_rows_loop(ctx, lam, rows, top):
    """``jets._pair_rows`` without its shortcuts: every term's pairing, the
    shared zero included, added into one ``LaurentSum`` that starts from
    zero up to N + (the first q with a term); zero up to ``top`` when no
    row has a term."""
    acc = None
    for q, num, den in rows:
        if not num:
            continue
        if acc is None:
            acc = LaurentSum(ctx.zero_poly(), ctx.order + q)
        for i, c in num.items():
            acc.add(chain_pair_mono(ctx, lam, LEGS[i]), Fraction(c, den), q)
    if acc is None:
        return HLaurent.zero_upto(top, ctx.zero_poly())
    return acc.value()


def built_product_series(spec, W, key, mono_right):
    """W . m or m . W for the basis monomial key m = (gamma, alpha), built
    order by order with ``pbw_mul``."""
    mono = env_mono(spec, key)
    if mono_right:
        return W.map(lambda t: pbw_mul(spec, t, mono))
    return W.map(lambda t: pbw_mul(spec, mono, t))


def unskipped_tensor_functional_from_pair(ctx, lam, mu, degree):
    """The body that maps and multiplies every entry with ``pbw_mul``,
    vanishing first pairings included, pairing through the chains; the
    mapped products depend on the first functional alone and are
    memoised per context in the oracles' memo."""
    spec = ctx.spec
    out = {}
    for b1 in pbw_indices(spec.rank, degree):
        for b2 in pbw_indices(spec.rank, degree - sum(b1)):
            m1 = EnvElement.monomial(spec.nvars, spec.rank, b1)
            m2 = EnvElement.monomial(spec.nvars, spec.rank, b2)
            first, second, m, mapper, moved = \
                (lam, mu, m2, ctx.dfa.source, m1) if ctx.flavor == LEFT \
                else (mu, lam, m1, ctx.dfa.target, m2)
            memo = memo_of(ctx)
            W = memo.get(("moved", first, b1, b2))
            if W is None:
                v = chain_pair_env(ctx, first, m)
                W = memo["moved", first, b1, b2] = _apply_series_map(
                    ctx, v, mapper).map(lambda t: pbw_mul(spec, moved, t))
            val = chain_pair_env_laurent(ctx, second, W)
            if not val.is_zero():
                out[(b1, b2)] = val
    return out


def built_coproduct_functional(ctx, lam, degree):
    """lam(e^b1 e^b2) (left) or lam(e^b2 e^b1) (right), the product built
    with ``pbw_mul`` and paired through the chains."""
    spec = ctx.spec
    out = {}
    for b1 in pbw_indices(spec.rank, degree):
        for b2 in pbw_indices(spec.rank, degree - sum(b1)):
            m1 = EnvElement.monomial(spec.nvars, spec.rank, b1)
            m2 = EnvElement.monomial(spec.nvars, spec.rank, b2)
            prod = pbw_mul(spec, m1, m2) if ctx.flavor == LEFT \
                else pbw_mul(spec, m2, m1)
            v = chain_pair_env(ctx, lam, prod)
            if not v.is_zero():
                out[(b1, b2)] = v
    return out


def built_source_target(ctx, a, degree):
    """The counits of the image of a times e^beta (or e^beta times it),
    each order of the product built with ``pbw_mul``."""
    spec = ctx.spec
    n = ctx.order
    image = jets._base_image(ctx, a)

    def counit_table(mono_right):
        table = {}
        for beta in pbw_indices(spec.rank, degree):
            mono = EnvElement.monomial(spec.nvars, spec.rank, beta)
            U = image.map(lambda w: pbw_mul(spec, w, mono)) if mono_right \
                else image.map(lambda w: pbw_mul(spec, mono, w))
            v = HLaurent(0, n, [env_counit(c) for c in U.coeffs],
                         ctx.zero_poly())
            if not v.is_zero():
                table[beta] = v
        return table

    left = ctx.flavor == LEFT
    return counit_table(left), counit_table(not left)


def gathered_jet_product(ctx, lam, mu, degree=None):
    """``jets.jet_product`` as the gather it replaced: every PBW index up to
    the degree (the jet degree by default) is evaluated on the terms of its
    lift (``lift_mono(...).terms``) grouped here by the paired leg, zeros
    left out (``jets._tabulate``).
    Each first pairing lam(w) and each factor mu(W . other) is paired
    through ``jets._pair_leg`` and ``jets._pair_rows`` (checked against
    the chains by their own entries) without a support test, and the
    terms c h^k P are summed as
    ``jets.jet_product_eval`` sums them.  The images and product rows of
    lam, the factors of (lam, mu) and the value at each index depend on
    neither the degree nor the call, so they are memoised per context in
    the oracles' memo."""
    if not lam.flavor == mu.flavor == ctx.flavor:
        raise FlavorError("mixed dual flavors")
    spec = ctx.spec
    zeros = (0,) * spec.nvars
    left = lam.flavor == LEFT
    leg = 1 if left else 0
    mapper = ctx.dfa.target if left else ctx.dfa.source
    memo = memo_of(ctx)

    def value(beta):
        hit = memo.get(("gather", lam, mu, beta))
        if hit is not None:
            return hit
        acc = LaurentSum(ctx.zero_poly())
        groups = {}
        for k, T in enumerate(ctx.dfa.lift_mono((zeros, beta)).coeffs):
            for pair, c in T.terms.items():
                groups.setdefault(pair[leg], []).append((k, pair[1 - leg], c))
        for paired, terms in groups.items():
            W = memo.get(("image", lam, paired), False)
            if W is False:
                v = _pair_leg(lam, ctx, leg_id(paired))
                W = memo["image", lam, paired] = None if v.is_zero() \
                    else _apply_series_map(ctx, v, mapper)
            if W is None:
                continue
            for k, other, c in terms:
                P = memo.get(("factor", lam, mu, paired, other))
                if P is None:
                    rows = memo.get(("rows", lam, paired, other))
                    if rows is None:
                        rows = memo["rows", lam, paired, other] = \
                            _product_rows(spec, W, other)
                    P = memo["factor", lam, mu, paired, other] = \
                        _pair_rows(ctx, mu, rows, W.top)
                acc.add(P, c, k)
        hit = memo["gather", lam, mu, beta] = \
            ctx.zero_value() if acc.top is None else acc.value()
        return hit

    return JetElement(lam.flavor, _tabulate(ctx, value, degree))


def watch_tabulations(monkeypatch):
    """Record what each dual-product tabulation (``jets.jet_product``) pairs.

    Wraps ``jets._transpose``, which starts every tabulation, and
    ``jets._image``, ``jets._pair_image`` and ``jets.jet_product_eval`` as
    ``jet_product`` calls them.  Returns the list of records, one per
    tabulation: ``pairs`` counts the factors mu(W . o) it pairs by (paired
    leg w, other leg o), ``vanishing`` is the set of paired legs w whose
    image it read as vanishing (W None), and ``paired_vanishing`` and
    ``evaluations`` count the factors paired on such a leg and the calls
    of ``jet_product_eval``."""
    tabulation = jets.jet_product.__code__
    real_transpose, real_image = jets._transpose, jets._image
    real_pair, real_eval = jets._pair_image, jets.jet_product_eval
    records, legs = [], {}

    def from_tabulation():
        return sys._getframe(2).f_code is tabulation

    def transpose(ctx, degree):
        if from_tabulation():
            records.append({"pairs": Counter(), "vanishing": set(),
                            "paired_vanishing": 0, "evaluations": 0})
        return real_transpose(ctx, degree)

    def image(lam, ctx, w, lift):
        entry = real_image(lam, ctx, w, lift)
        if from_tabulation():
            legs[id(entry)] = (w, entry)
            if entry[0] is None:
                records[-1]["vanishing"].add(w)
        return entry

    def pair_image(ctx, mu, image, m, lift):
        if from_tabulation():
            w, _ = legs[id(image)]
            records[-1]["pairs"][w, m] += 1
            if image[0] is None:
                records[-1]["paired_vanishing"] += 1
        return real_pair(ctx, mu, image, m, lift)

    def jet_product_eval(ctx, lam, mu, arg):
        if from_tabulation():
            records[-1]["evaluations"] += 1
        return real_eval(ctx, lam, mu, arg)

    monkeypatch.setattr(jets, "_transpose", transpose)
    monkeypatch.setattr(jets, "_image", image)
    monkeypatch.setattr(jets, "_pair_image", pair_image)
    monkeypatch.setattr(jets, "jet_product_eval", jet_product_eval)
    return records


def jet_coproduct_decompose(ctx, lam, degree=None):
    """Optional exact splitting of the transposed coproduct.

    Solves Delta(lam) = sum_kappa lam_kappa (x) xi^kappa/kappa! against the
    divided generator powers on the right legs, by the same triangular
    iteration as the dual-basis solves: at order zero the weave is the
    Kronecker pairing, so each residual order determines the left legs.
    Raises TruncationInsufficientError when the re-woven table does not
    reproduce the coproduct on the requested range.
    """
    degree = degree if degree is not None else ctx.jet_degree
    spec = ctx.spec
    n = ctx.order
    target = jet_coproduct_functional(ctx, lam, degree)
    powers = divided_xi_powers(ctx, degree)

    idx = pbw_indices(spec.rank, degree)
    zero = ctx.zero_value()
    left = {kappa: {} for kappa in idx}

    def weave():
        return table_sum(tensor_functional_from_pair(
            ctx, JetElement(ctx.flavor, left[kappa]), powers[kappa], degree)
            for kappa in idx)

    base = min(v.val for v in target.values()) if target else 0
    for q in range(base, n + 1):
        # updates at low PBW degree shift same-order residuals at higher
        # degree, so sweep to a fixed point within each order
        for _ in range(degree + 2):
            woven = weave()
            dirty = False
            for (b1, b2) in sorted(set(target) | set(woven),
                                   key=lambda k: (sum(k[0]), k)):
                resid = target.get((b1, b2), zero) - woven.get((b1, b2), zero)
                c = resid.coeff(q)
                if c.is_zero() or b1 not in left:
                    continue
                dirty = True
                bump = HLaurent(q, n, [c] + [ctx.zero_poly()] * (n - q),
                                ctx.zero_poly())
                cur = left[b1].get(b2)
                left[b1][b2] = bump if cur is None else cur + bump
            if not dirty:
                break
    result = {kappa: JetElement(ctx.flavor, left[kappa]) for kappa in idx
              if any(not v.is_zero() for v in left[kappa].values())}
    woven = weave()
    if not tensor_tables_equal(ctx, target, woven):
        raise TruncationInsufficientError(
            "coproduct decomposition did not converge on the range")
    return result


def evaluation_iso_check(ctx, degree):
    """On monomials: the xi-power pairing matrix is the identity and the
    evaluation respects products through the convolution identity
    <xi^k/k!, u v> = sum_{k1+k2=k} <xi^k1/k1!, u><xi^k2/k2!, v> at h^0."""
    spec = ctx.spec
    idx = pbw_indices(spec.rank, degree)
    powers = divided_xi_powers(ctx, degree)
    for kappa in idx:
        for beta in idx:
            mono = EnvElement.monomial(spec.nvars, spec.rank, beta)
            val = pair_element(ctx, powers[kappa], mono).coeff(0)
            want = CPoly.one(spec.nvars) if kappa == beta else CPoly.zero(spec.nvars)
            if val != want:
                return False
    half = [b for b in idx if 2 * sum(b) <= degree]
    for b1 in half:
        for b2 in half:
            m1 = EnvElement.monomial(spec.nvars, spec.rank, b1)
            m2 = EnvElement.monomial(spec.nvars, spec.rank, b2)
            prod = pbw_mul(spec, m1, m2)
            for kappa in idx:
                lhs = pair_element(ctx, powers[kappa], prod).coeff(0)
                rhs = CPoly.zero(spec.nvars)
                for k1 in idx:
                    k2 = tuple(a - b for a, b in zip(kappa, k1))
                    if any(t < 0 for t in k2):
                        continue
                    rhs = rhs + pair_element(ctx, powers[k1], m1).coeff(0) \
                        * pair_element(ctx, powers[k2], m2).coeff(0)
                if lhs != rhs:
                    return False
    return True


# -- Lie bialgebroids ----------------------------------------------------------------


def poisson_from_pair(specL, specLstar, f, g):
    """{f, g} = <df, d_* g> under the basis/dual-basis pairing."""
    delta = cobracket_from_dual_spec(specL, specLstar)
    dg = delta.on_poly(g)   # element of L
    out = CPoly.zero(specL.nvars)
    for (i,), c in dg.terms.items():
        out = out + specL.anchor_apply(i, f) * c
    return out


# -- comparisons ---------------------------------------------------------------------


def basis_keys(x):
    """The basis keys of a tensor, an envelope element or a polynomial."""
    if isinstance(x, TensorElement):
        return set(x.terms)
    if isinstance(x, EnvElement):
        return {(a, g) for a, p in x.terms.items() for g in p.terms}
    return set(x.terms)


def equal(got, want):
    assert got == want


def same_keys(got, want):
    """Equal values with, order by order, the same basis keys."""
    assert got == want
    assert [basis_keys(c) for c in getattr(got, "coeffs", got)] \
        == [basis_keys(c) for c in getattr(want, "coeffs", want)]


def same_window(got, want):
    assert window(got) == window(want)


def same_windows(got, want):
    """Tables with the same keys and, key by key, the same windows."""
    assert windows(got) == windows(want)


def same_window_tables(got, want):
    """Lists of tables with, table by table, the same windows."""
    assert [windows(t) for t in got] == [windows(t) for t in want]


def same_ordered_windows(got, want):
    """Tables with the same keys in the same order and the same windows."""
    assert [(k, window(v)) for k, v in got.items()] \
        == [(k, window(v)) for k, v in want.items()]


def same_terms(got, want):
    """Tensor series with the same ``.terms`` order by order, each order's
    numerators integral."""
    assert [T.terms for T in got.coeffs] == [T.terms for T in want.coeffs]
    for T in got.coeffs:
        assert_integral(T)


def same_nested(got, want):
    """A tensor in its own term order against (terms, den) on nested keys."""
    assert nested(assert_integral(got)) == want


# -- the registry: inputs, fast paths and references ----------------------------------


def random_pairs(dfa):
    """Twelve pairs of random elements."""
    rng = random.Random(2024)
    return [(random_elem(dfa.spec, rng), random_elem(dfa.spec, rng))
            for _ in range(12)]


def mono_pairs(dfa):
    """Each element of ``mono_loop_inputs`` times each of its monomials,
    on either side."""
    spec = dfa.spec
    elems, keys = mono_loop_inputs(spec)
    monos = [env_mono(spec, key) for key in keys]
    return [p for w in elems for m in monos for p in ((w, m), (m, w))]


def _pbw_pairs(dfa, flavors):
    return random_pairs(dfa) + mono_pairs(dfa)


def _leg_pairs(dfa, flavors):
    spec = dfa.spec
    alphas = pbw_indices(spec.rank, 2 if spec.rank < 4 else 1)
    gammas = [(0,) * spec.nvars]
    if spec.nvars:
        gammas += [_bump(gammas[0], 0), (1,) * spec.nvars]
    legs = [(g, a) for a in alphas for g in gammas]
    return [(la, lb) for la in legs for lb in legs]


def _ref_leg_product(dfa, la, lb):
    want = rewriting_mul(dfa.spec, env_mono(dfa.spec, la), env_mono(dfa.spec, lb))
    return {(g, a): q for a, p in want.terms.items() for g, q in p.terms.items()}


def _cmp_leg_product(got, want):
    assert dict(got) == want
    assert len(dict(got)) == len(got) and all(q for _, q in got)


def mono_scales(key, right):
    """1 and -3/2, and where ``basis_decompose`` subtracts c w e^alpha
    (on the right, gamma = 0) also -1 and 3/2."""
    extra = (-1, Fraction(3, 2)) if right and not any(key[0]) else ()
    return (1, Fraction(-3, 2)) + extra


def _mono_rows(dfa, flavors):
    """Each element of ``mono_loop_inputs`` times each of its monomials on
    either side, into no accumulator and into each element's numerators,
    some of which the product cancels (the first three above rank 3)."""
    elems, keys = mono_loop_inputs(dfa.spec)
    if dfa.spec.rank > 3:
        keys = keys[:2 * (dfa.spec.rank + 1)]
    starts = [EnvElement.zero(dfa.spec.nvars, dfa.spec.rank)] + \
        elems[:None if dfa.spec.rank <= 3 else 3]
    return [(w, key, right, starts) for w in elems for key in keys
            for right in (True, False)]


def mono_loop_run(spec, s, w, key, c, right):
    """s + c (w . m) (``right``) or s + c (m . w) for elements s, w, the
    basis monomial key m and a rational c, through ``_mul_mono_into`` on
    numerators over den = lcm(den(s), den(c) den(w)): (the numerators,
    den), the numerators holding no zero."""
    den = lcm(s.den, c.denominator * w.den)
    out = {i: q * (den // s.den) for i, q in s.num.items()}
    _mul_mono_into(out, spec, w, leg_id(key),
                   c.numerator * (den // (c.denominator * w.den)), right)
    return out, den


def _fast_mono_rows(dfa, w, key, right, starts):
    return [mono_loop_run(dfa.spec, s, w, key, Fraction(c), right)
            for c in mono_scales(key, right) for s in starts]


def _ref_mono_rows(dfa, w, key, right, starts):
    spec = dfa.spec
    m = env_mono(spec, key)
    prod = flat(env_rows(rewriting_mul(spec, w, m) if right
                         else rewriting_mul(spec, m, w)))
    out = []
    for c in mono_scales(key, right):
        for s in starts:
            acc = flat(env_rows(s))
            for k, q in prod.items():
                _bump_term(acc, k, c * q)
            out.append(acc)
    return out


def _cmp_mono_rows(got, want):
    assert len(got) == len(want)
    for (num, den), w in zip(got, want):
        assert all(num.values())
        assert {LEGS[i]: Fraction(q, den) for i, q in num.items()} \
            == {(g, a): q for (g, a), q in w.items()}


def _defelem_pairs(dfa, flavors):
    elems = mono_loop_inputs(dfa.spec)[0]
    zero = EnvElement.zero(dfa.spec.nvars, dfa.spec.rank)
    a = HSeries(2, elems[:3], zero)
    b = HSeries(2, [elems[3], zero, elems[-1]], zero)
    return [(a, b), (b, a), (a, a)]


def _action_args(dfa, flavors):
    spec = dfa.spec
    alphas = pbw_indices(spec.rank, 4 if spec.rank <= 3 else 2)
    gammas = list(itertools.product(range(4 if spec.nvars < 3 else 2),
                                    repeat=spec.nvars))
    return [(alpha, gamma) for alpha in alphas for gamma in gammas]


def _act_args(dfa, flavors):
    spec = dfa.spec
    rng = random.Random(7)
    keys = low_monomials(spec, 3 if spec.rank <= 3 else 2)
    keys.append(((1,) * spec.nvars, _bump((0,) * spec.rank, spec.rank - 1, 3)))
    out = []
    for _ in range(4):
        a = random_poly(spec, rng)
        out += [("key", key, a) for key in keys]
        out.append(("elem", random_elem(spec, rng), a))
    return out


def _fast_act(dfa, kind, x, a):
    if kind == "key":
        return CPoly(dfa.spec.nvars, _act_into({}, dfa.spec, x, a, 1))
    return anchor_action(dfa.spec, x, a)


def _ref_act(dfa, kind, x, a):
    spec = dfa.spec
    if kind == "key":
        return chain_act_mono(spec, x, a)
    want = CPoly.zero(spec.nvars)
    for alpha, c in x.terms.items():
        want = want + c * chain_act_mono(spec, ((0,) * spec.nvars, alpha), a)
    return want


def _lift_keys(dfa, flavors):
    return [(key,) for key in low_keys(dfa.spec, 3 if dfa.spec.rank <= 3 else 2)]


def splice_args(dfa, keys, wide=True):
    """Both legs of the lifts of the first two samples and of the basis
    monomials ``keys``, and with ``wide`` each leg of the 3-leg coproduct
    of the first lift, whose splices have four legs."""
    spec = dfa.spec
    elems = sample_defelems(dfa, 1)[:2] * wide + [
        defelem_from_env(spec, env_mono(spec, key), dfa.order) for key in keys]
    lifts = [twisted_coproduct(dfa, u) for u in elems]
    out = [(HT, leg) for HT in lifts for leg in (0, 1)]
    if wide:
        three = deformed_coproduct_leg(dfa, lifts[0], 1)
        assert three.zero.legs == 3
        out += [(three, leg) for leg in (0, 1, 2)]
    return out


def _splice_args(dfa, flavors):
    return splice_args(dfa, low_monomials(dfa.spec, 1))


def coproduct_elements(dfa):
    """The generators, the zero series, a source image (a member of H',
    whose projections cancel) and random series whose orders mix basis
    monomials of degree <= 2 with pure base terms, which the projections
    map."""
    spec = dfa.spec
    n = dfa.order
    rng = random.Random(12)
    zero = EnvElement.zero(spec.nvars, spec.rank)
    out = sample_defelems(dfa, 1) + [hs_zero(n, zero)]
    if spec.nvars:
        out.append(dfa.source_series(hs_const(
            CPoly.var(spec.nvars, 0), n, CPoly.zero(spec.nvars))))
    for _ in range(3):
        out.append(HSeries(n, [
            random_elem(spec, rng, 2) + EnvElement.from_poly(
                spec.rank, random_poly(spec, rng))
            if rng.random() < 0.7 else zero for _ in range(n + 1)], zero))
    return out


def _twisted_args(dfa, flavors):
    return [(u,) for u in coproduct_elements(dfa)]


def projection_args(dfa):
    """Each leg of the 1-leg series of ``coproduct_elements``, of their
    twisted coproducts and of the 3-leg coproduct of the first, each as
    built and after the projection of the legs before it, for both
    flavors."""
    elems = coproduct_elements(dfa)
    series = [u.map(TensorElement.of) for u in elems]
    lifts = [twisted_coproduct(dfa, u) for u in elems]
    series += lifts + [deformed_coproduct_leg(dfa, lifts[0], 0)]
    out = []
    for flavor in ("source", "target"):
        for HT in series:
            chained = HT
            for leg in range(HT.zero.legs):
                out += [(HT, leg, flavor), (chained, leg, flavor)]
                chained = drinfeld._project_leg(dfa, chained, leg, flavor)
    return out


def _projection_args(dfa, flavors):
    return projection_args(dfa)


def image_polys(dfa):
    """Monomials of degree <= 2 and three random polynomials."""
    rng = random.Random(3)
    return monomials_upto(dfa.spec.nvars, 2) \
        + [random_poly(dfa.spec, rng) for _ in range(3)]


def sweep_polys(dfa, leg):
    """``base_map_inputs`` and, where two monomial images under s_F (leg
    0) or t_F (leg 1) share a term, the combination that cancels it."""
    cancel = base_cancel(dfa, leg)
    return base_map_inputs(dfa) + ([] if cancel is None else [cancel[0]])


def _base_args(dfa, flavors):
    return [(leg, p) for leg in (0, 1)
            for p in image_polys(dfa) + sweep_polys(dfa, leg)]


def star_table_pairs(dfa):
    """All pairs of the monomials of degree <= 1 and three random
    polynomials."""
    rng = random.Random(4)
    polys = monomials_upto(dfa.spec.nvars, 1) + [random_poly(dfa.spec, rng)
                                                 for _ in range(3)]
    return [(p, q) for p in polys for q in polys]


def star_sweep_pairs(dfa):
    """All pairs of some of ``base_map_inputs``, and (x1 + x1 x2)(x2 - 1),
    whose two x1 x2 terms cancel at order zero."""
    spec = dfa.spec
    polys = base_map_inputs(dfa)
    polys = polys[:4] + polys[-7:]
    pairs = [(p, q) for p in polys for q in polys]
    if spec.nvars >= 2:
        x1, x2 = CPoly.var(spec.nvars, 0), CPoly.var(spec.nvars, 1)
        pairs.append((x1 + x1 * x2, x2 - 1))
    return pairs


def _star_args(dfa, flavors):
    return star_table_pairs(dfa) + star_sweep_pairs(dfa)


def _series_args(dfa, flavors):
    n = dfa.order
    rng = random.Random(11)
    polys = base_map_inputs(dfa)
    zero = CPoly.zero(dfa.spec.nvars)
    # constant series, a monomial at the top order, and random series with
    # zero orders; a and -a at two orders, whose images cancel from the
    # higher order up
    sers = [hs_const(p, n, zero) for p in polys[:3]]
    sers.append(HSeries(n, [zero] * n + [polys[1]], zero))
    for _ in range(4):
        sers.append(HSeries(n, [rng.choice(polys + [zero, zero])
                                for _ in range(n + 1)], zero))
    a = polys[-1]
    sers.append(HSeries(n, [a, -a] + [zero] * (n - 1), zero))
    return [(leg, s) for s in sers for leg in (0, 1)]


def _cmp_series(got, want):
    assert got == want
    assert flat_terms(got) == flat_terms(want)


def _invert_args(dfa, flavors):
    return [()] if dfa.exponent is not None else []


def _ref_invert(dfa):
    spec = dfa.spec
    unit = TensorElement.unit(spec.nvars, spec.rank, 2)
    return hseries_invert(dfa.twistor,
                          lambda a, b: tensor_mul_legs(spec, a, b),
                          a0_inv=unit, one=unit)


def tensor_groups(dfa):
    """The 2-, 3- and 4-leg inputs of the tensor layer: the 2-leg inputs of
    the loop nest; the 3-leg integer-layer tensors, the twistor's first
    coefficients on the first two and the last two of three legs and
    under the coproduct at their first leg, and the sides of the cocycle
    identity; the wide 4-leg tensors."""
    spec = dfa.spec
    three = integer_layer_inputs(spec)[1] + [
        T for Fk in dfa.twistor.coeffs[1:3]
        for T in (embedded(Fk, 3, 0), embedded(Fk, 3, 1),
                  tensor_coproduct_leg(spec, Fk, 0))]
    three += [t for pair in cocycle_sides(dfa) for t in pair]
    return loop_nest_inputs(dfa), three, wide_tensors(spec, 4)


def factor_pairs(dfa):
    """Products of r, its flip, 3 r, the unit and the generators on the
    first leg, and of the wide 2-, 3- and 4-leg tensors."""
    spec = dfa.spec
    r = arbitrary_exponent(spec)
    gens = [TensorElement.of(EnvElement.gen(spec.nvars, spec.rank, i),
                             EnvElement.one(spec.nvars, spec.rank))
            for i in range(spec.rank)]
    factors = [r, r.flip(), r.scale(3),
               TensorElement.unit(spec.nvars, spec.rank)] + gens
    out = [(s, t) for s in factors for t in factors]
    for legs in (2, 3, 4):
        group = wide_tensors(spec, legs)
        # two outer products of random elements make too many term pairs
        few = group[:legs + 1] + group[-1:]
        out += [(s, t) for s in group for t in few]
        out += [(t, s) for s in group[legs + 1:-1] for t in few]
    return out


def layer_pairs(dfa):
    """Products within the 2-leg group of ``tensor_groups`` and of the
    4-leg group by its first five and last."""
    two, _, four = tensor_groups(dfa)
    return [(s, t) for s in two for t in two] \
        + [(s, t) for s in four for t in four[:5] + four[-1:]]


def _mul_pairs(dfa, flavors):
    return factor_pairs(dfa) + layer_pairs(dfa)


def _fast_tensor_mul(dfa, s, t):
    return (tensor_mul if s.legs == 2 else tensor_mul_legs)(dfa.spec, s, t)


def _nest_pairs(dfa, flavors):
    """Each pair of the loop nest's inputs, into an empty accumulator, into
    the previous pair's product with m = 6 and m = 1, and into the negated
    product, which it cancels to empty."""
    out = []
    group = loop_nest_inputs(dfa)
    prev = {}
    for s in group:
        for t in group:
            want = mul_into_legs({}, dfa.spec, s, t, 1)
            negated = {k: -c for k, c in want.items()}
            out.append((s, t, (({}, 1), (prev, 6), (prev, 1), (negated, 1))))
            prev = want
    return out


def _nest_runs(dfa, s, t, starts, mul):
    return [mul(dict(start), dfa.spec, s, t, m) for start, m in starts]


def _cmp_nest(got, want):
    assert [list(g.items()) for g in got] == [list(w.items()) for w in want]
    assert [[type(c) for c in g.values()] for g in got] \
        == [[type(c) for c in w.values()] for w in want]
    assert got[-1] == {}


def _reduce_tensors(dfa, flavors):
    two, three, _ = tensor_groups(dfa)
    return [(T,) for T in two + three]


def _class_pairs(dfa, flavors):
    two, three, _ = tensor_groups(dfa)
    return [(s, t) for group in (two, three) for s in group
            for t in group[:4] + [doubled(s), doubled(s) - s.scale(2)]] \
        + cocycle_sides(dfa)


def _ref_class(dfa, s, t):
    want = nested_values([nested_tensor_reduce(dfa.spec, s)]) \
        == nested_values([nested_tensor_reduce(dfa.spec, t)])
    return want, want


def two_product_takeuchi(spec, T, samples):
    """``tensorspace.takeuchi_check`` as it was: for every sample a, the
    two products T (a (x) 1) and T (1 (x) a) on nested keys, each reduced
    on its own, must be one class."""
    one = EnvElement.one(spec.nvars, spec.rank)
    for a in samples:
        a_env = EnvElement.from_poly(spec.rank, a)
        sides = []
        for factors in ((a_env, one), (one, a_env)):
            product = nested_values([nested_tensor_mul(
                spec, T, TensorElement.of(*factors))])[0]
            sides.append(nested_values([nested_tensor_reduce(
                spec, TensorElement(spec.nvars, spec.rank, 2, product))]))
        if sides[0] != sides[1]:
            return False
    return True


def _takeuchi_args(dfa, flavors):
    """The coproducts of ``edge_elements`` (members) and the 2-leg inputs
    of the tensor layer (r, its flip and scales, the unit, gen (x) x1, a
    zero, the twistor's coefficients), against the base monomials of
    degree <= 2, the constant one among them, and against x1 alone."""
    spec = dfa.spec
    samples = monomials_upto(spec.nvars, 2)
    tensors = [env_coproduct(spec, u) for u in edge_elements(spec)] \
        + loop_nest_inputs(dfa)
    return [(T, s) for T in tensors for s in (samples, samples[1:2])]


def copro_args(tensors):
    return [(T, leg) for T in tensors for leg in range(T.legs)]


def _copro_args(dfa, flavors):
    two, three = integer_layer_inputs(dfa.spec)
    return copro_args(two + three + wide_tensors(dfa.spec, 4))


def _cmp_copro(got, want):
    assert nested(assert_integral(got)) == want[0]
    assert got.terms == want[1]


def _env_copro_args(dfa, flavors):
    spec = dfa.spec
    # a rational coefficient that loads the left leg
    terms = {(0,) * spec.nvars: Fraction(-1, 3)}
    if spec.nvars:
        terms[_bump((0,) * spec.nvars, 0)] = Fraction(5, 2)
    poly = CPoly(spec.nvars, terms)
    gens = [EnvElement.monomial(spec.nvars, spec.rank, alpha, poly)
            for alpha in pbw_indices(spec.rank, 2)]
    return [(u,) for u in gens + [sum(gens[1:], gens[0])]]


def _of_args(dfa, flavors):
    """One, two and three factors among elements with rational
    coefficients (over 6, 3 and 2 and random ones), the unit and a zero."""
    spec = dfa.spec
    rng = random.Random(31)
    elems = [u for (u,) in _env_copro_args(dfa, flavors)][-2:] + [
        random_elem(spec, rng, 2).scale(Fraction(5, 6)),
        EnvElement.one(spec.nvars, spec.rank),
        EnvElement.zero(spec.nvars, spec.rank)]
    return [(u,) for u in elems] + [(u, v) for u in elems for v in elems] \
        + [tuple(elems[:3]), (elems[2], elems[3], elems[0])]


def same_ordered_terms(got, want):
    """Tensors with the same ``.terms`` in the same order, the first with
    integral numerators."""
    assert list(assert_integral(got).terms.items()) \
        == list(want.terms.items())


def _arith_args(dfa, flavors):
    two, three = integer_layer_inputs(dfa.spec)
    return [(s, t) for group in (two, three) for s in group for t in group]


def _fast_arith(dfa, s, t):
    return [assert_integral(x).terms for x in
            [s + t, s - t, -s] + [s.scale(c) for c in
                                  (0, 1, -1, 5, Fraction(3, 4), Fraction(-7, 6))]]


def _ref_arith(dfa, s, t):
    return [frac_add(s, t), frac_add(s, t, -1), frac_scale(s, -1)] \
        + [frac_scale(s, c) for c in (0, 1, -1, 5, Fraction(3, 4),
                                      Fraction(-7, 6))]


def _series_mul_pairs(dfa, flavors):
    spec = dfa.spec
    F, G = dfa.twistor, dfa.G
    one = EnvElement.one(spec.nvars, spec.rank)
    ta = dfa.target(CPoly.var(spec.nvars, 0) if spec.nvars
                    else CPoly.one(0)).map(lambda u: TensorElement.of(u, one))
    lifts = [twisted_coproduct(dfa, u) for u in sample_defelems(dfa, 1)]
    return [(F, G), (G, F), (lifts[0], lifts[-1]), (lifts[-1], ta),
            (F, ta - ta.shift(1))]


def reduce_args(dfa):
    """The reductions checked leg by leg: six reduction inputs and one
    4-leg coproduct, each leg of the raw input and each leg after the
    earlier ones were reduced."""
    out = []
    for HT in reduction_inputs(dfa)[:6] + four_leg_inputs(dfa)[:1]:
        chained = HT
        for leg in range(HT.zero.legs - 1):
            out += [(HT, leg), (chained, leg)]
            chained = deform._reduce_leg(dfa, chained, leg)
    return out


def _reduce_leg_args(dfa, flavors):
    return reduce_args(dfa) if valid_reduction(dfa) else []


def valid_reduction(dfa):
    """Whether the reduction through x^gamma alone must equal the whole
    leg's decomposition: constant structure functions, or a twistor the
    validator accepts."""
    return not polynomial_brackets(dfa.spec) \
        or twistor_validate(dfa).ok()


def _ref_reduce_leg(dfa, HT, leg):
    return (nested_reduce_leg(dfa, HT, leg),
            nested_values(nested(T) for T in uncached_reduce_leg(
                dfa, HT, leg).coeffs))


def _cmp_reduce_leg(got, want):
    assert [nested(assert_integral(T)) for T in got.coeffs] == want[0]
    assert nested_values(nested(T) for T in got.coeffs) == want[1]


def _reduce_series_args(dfa, flavors):
    return [(HT,) for HT in reduction_inputs(dfa)] if valid_reduction(dfa) \
        else []


def _cmp_reduced(got, want):
    assert got == want
    for T in got.coeffs:
        assert_integral(T)


def _decompose_args(dfa, flavors):
    return [(u, flavor) for flavor in ("source", "target")
            for u in decomposition_inputs(dfa, flavor)]


def _cmp_decomposition(got, want):
    """The same keys in the same order and values, no zero series, and the
    decomposition re-expands to the input."""
    (dec, back), (ref, u) = got, want
    assert list(dec) == list(ref)
    assert dec == ref
    assert all(any(c.terms for c in aser.coeffs) for aser in dec.values())
    assert back == u


def _fast_decompose(dfa, u, flavor):
    dec = basis_decompose(dfa, u, flavor)
    return dec, reexpand(dfa, dec, flavor)


def _ref_decompose(dfa, u, flavor):
    return backsubstitution_decompose(dfa, u, flavor), u


def _mono_keys(dfa, flavors):
    spec = dfa.spec
    return [((g, a), flavor) for flavor in ("source", "target")
            for g in pbw_indices(spec.nvars, 2)
            for a in pbw_indices(spec.rank, 2 if spec.rank <= 4 else 1)]


def _fast_decompose_mono(dfa, key, flavor):
    dec = dfa.decompose_mono(key, flavor)
    return dec, reexpand(dfa, dec, flavor)


def _ref_decompose_mono(dfa, key, flavor):
    """The whole monomial's ``basis_decompose`` (checked against the
    back-substitution by the ``basis_decompose`` entry)."""
    u = defelem_from_env(dfa.spec, env_mono(dfa.spec, key), dfa.order)
    return whole_decompose(dfa, key, flavor), u


def _copro_basis_args(dfa, flavors):
    two, three, four = tensor_groups(dfa)
    return [(w,) for w in dict.fromkeys(
        LEGS[i] for T in two + three + four for key in T.num for i in key)]


def _pair_mono_args(dfa, flavors):
    out = []
    for ctx in contexts(dfa, flavors):
        funcs = edge_functionals(ctx) + dual_functionals(ctx) + [
            coordinate_functional(ctx, j) for j in range(ctx.spec.nvars)]
        out += [(ctx, lam, key) for lam in funcs
                for key in pairing_keys(ctx.spec)]
    return out


def _ref_pair_mono(dfa, ctx, lam, key):
    want = chain_pair_mono(ctx, lam, key)
    return want, not want.coeffs and want.top == ctx.order


def pair_basis(ctx, lam, key):
    """lam on the basis monomial key = (gamma, alpha) as the engine pairs a
    term of a row: a pure key reads lam's table, an impure one its
    memoised pairing (``jets._pair_leg``)."""
    return _pair_leg(lam, ctx, leg_id(key))


def _fast_pair_mono(dfa, ctx, lam, key):
    got = pair_basis(ctx, lam, key)
    return got, got is ctx.zero_value()


def _cmp_pair_mono(got, want):
    """The window of the chain, and the shared zero exactly where the
    chain is the empty window up to N."""
    assert window(got[0]) == window(want[0])
    assert got[1] == want[1]


def _jet_pair_args(dfa, flavors):
    out = []
    for ctx in contexts(dfa, flavors):
        elems = edge_elements(ctx.spec)
        out += [(ctx, lam, x) for lam in edge_functionals(ctx)
                for x in elems + edge_series(ctx, elems)]
    return out


def _fast_jet_pair(dfa, ctx, lam, x):
    if isinstance(x, EnvElement):
        return pair_element(ctx, lam, x)
    return pair_laurent(ctx, lam, x)


def _ref_jet_pair(dfa, ctx, lam, x):
    if isinstance(x, EnvElement):
        return chain_pair_env(ctx, lam, x)
    return chain_pair_env_laurent(ctx, lam, x)


def _laurent_args(dfa, flavors):
    out = []
    for ctx in contexts(dfa, flavors):
        values = [v for lam in edge_functionals(ctx)[1:]
                  for v in lam.table.values()]
        values += [v.shift(1) for v in values[:2]]
        out += [(ctx, x, y) for x in values for y in values]
    return out


def _eval_args(dfa, flavors, degree=2, functionals=table_functionals):
    """Dual products of ``functionals`` on the PBW monomials up to
    ``degree`` and x1 e_last."""
    out = []
    for ctx in contexts(dfa, flavors):
        spec = ctx.spec
        args = [((0,) * spec.nvars, beta) for beta in pbw_indices(
            spec.rank, degree if spec.rank <= 4 else 1)]
        if spec.nvars:
            args.append((_bump((0,) * spec.nvars, 0),
                         _bump((0,) * spec.rank, spec.rank - 1)))
        funcs = functionals(ctx)
        out += [(ctx, lam, mu, args) for lam in funcs for mu in funcs]
    return out


def _fast_eval(dfa, ctx, lam, mu, args):
    # the second pass reads lam's images and rows from its memo
    return [[window(jets.jet_product_eval(ctx, lam, mu, a)) for a in args]
            for _ in range(2)]


def _ref_eval(dfa, ctx, lam, mu, args):
    want = [window(unmemoised_sum(ctx, mu, unmemoised_images(ctx, lam, a)))
            for a in args]
    return [want, want]


def id_rows(rows):
    """Rows (q, {alpha: {gamma: c}}) as the rows (q, num, den) that
    ``jets._pair_rows`` reads: numerators by leg id over the lcm of the
    row's denominators."""
    return [(q,) + _common_den({leg_id((g, a)): c for a, terms in row.items()
                                for g, c in terms.items()})
            for q, row in rows]


def rows_cases(spec):
    """Rows (q, num, den) of: one term with c = 1 at q = 0, q > 0 and
    q < 0, between empty rows, one with c != 1, seeded row sets that mix
    the shared zero with nonzero pairings, and no rows."""
    keys = pairing_keys(spec, 1)
    cases = []
    for g, a in keys:
        cases += [[(q, {a: {g: 1}})] for q in (0, 2, -1)]
        cases.append([(1, {a: {g: Fraction(-3, 2)}})])
        cases.append([(0, {}), (1, {a: {g: 1}}), (2, {})])
    rng = random.Random(23)
    for _ in range(30):
        rows = []
        for q in sorted(rng.sample(range(-1, 3), rng.randint(1, 3))):
            row = {}
            for g, a in rng.sample(keys, min(len(keys), rng.randint(0, 3))):
                row.setdefault(a, {})[g] = rng.choice([1, 2, Fraction(-3, 2)])
            rows.append((q, row))
        cases.append(rows)
    return [id_rows(rows) for rows in cases] + [[]]


def rows_functionals(ctx):
    """The edge cases and xi_0 h, which pairs to windows topped at N + 1,
    where the lone-term shortcut must not apply."""
    return edge_functionals(ctx) + [xi_functional(ctx, 0).shift(1)]


def _rows_args(dfa, flavors):
    return [(ctx, lam, rows) for ctx in contexts(dfa, flavors)
            for lam in rows_functionals(ctx) for rows in rows_cases(ctx.spec)]


def _product_args(dfa, flavors):
    out = []
    for ctx in contexts(dfa, flavors):
        p, m = ctx.spec.nvars, ctx.spec.rank
        series = edge_series(ctx, edge_elements(ctx.spec))
        # the unit, the first and last generators and x1 e_0 (a coordinate
        # the table entry is shifted by when the monomial is on the left)
        monos = [((0,) * p, (0,) * m), ((0,) * p, _bump((0,) * m, 0)),
                 ((0,) * p, _bump((0,) * m, m - 1))]
        if p:
            monos.append((_bump((0,) * p, 0), _bump((0,) * m, 0)))
        out += [(ctx, lam, W, key, right) for key in monos
                for right in (True, False) for lam in edge_functionals(ctx)
                for W in series]
    return out


def _from_pair_args(dfa, flavors, degree=2):
    out = []
    for ctx in contexts(dfa, flavors, degree):
        funcs = table_functionals(ctx)
        out += [(ctx, lam, mu, degree) for lam in funcs for mu in funcs]
    return out


def _coproduct_args(dfa, flavors):
    out = []
    for ctx in contexts(dfa, flavors):
        funcs = edge_functionals(ctx) + dual_functionals(ctx)
        if ctx.spec.nvars:
            funcs.append(coordinate_functional(ctx, 0))
        out += [(ctx, lam, 2) for lam in funcs]
    return out


def _source_target_args(dfa, flavors, degrees=(1, 2)):
    out = []
    for ctx in contexts(dfa, flavors, max(degrees)):
        p = ctx.spec.nvars
        polys = [CPoly.zero(p), CPoly.const(p, 2)]
        if p:
            x1, xl = CPoly.var(p, 0), CPoly.var(p, p - 1)
            mixed = x1 * xl - CPoly.const(p, Fraction(2, 3))
            polys += [x1, x1 * x1 * xl, mixed, mixed + x1 * x1]
        out += [(ctx, a, d) for a in polys for d in degrees]
    return out


def _fast_source_target(dfa, ctx, a, degree):
    return [j.table for j in jets.jet_source_target(ctx, a, degree)]


def jet_product_degrees(ctx):
    """1, 2, 3, the associativity reach of ``jet_axiom_suite`` and 2
    again, so each degree reads its own transpose, after a lower and
    after a higher one."""
    zeros = (0,) * ctx.spec.nvars
    reach = max([2] + [
        sum(LEGS[i][1]) for beta in pbw_indices(ctx.spec.rank, 2)
        for T in ctx.dfa.lift_mono((zeros, beta)).coeffs
        for key in T.num for i in key])
    return (1, 2, 3, reach, 2) if ctx.spec.rank <= 4 else (1, 2, reach, 2)


def _jet_product_args(dfa, flavors):
    out = []
    for ctx in contexts(dfa, flavors):
        funcs = edge_functionals(ctx) + [
            unit_functional(ctx), coordinate_functional(ctx, 0),
            xi_functional(ctx, 1)]
        degrees = jet_product_degrees(ctx)
        for degree in degrees:
            # at the reach, only the edge cases with values: the index
            # count grows fastest there
            some = funcs[1:5] if degree == degrees[-2] else funcs
            out += [(ctx, lam, mu, degree) for lam in some for mu in some]
    return out


def _fast_jet_product(dfa, ctx, lam, mu, degree):
    return jet_product(ctx, lam, mu, degree).table


def _ref_jet_product(dfa, ctx, lam, mu, degree):
    return gathered_jet_product(ctx, lam, mu, degree).table


def _counit_args(dfa, flavors):
    """The lifts of the elements of ``coproduct_elements``, contracted on
    either leg."""
    return [(twisted_coproduct(dfa, u), leg)
            for u in coproduct_elements(dfa) for leg in (0, 1)]


def _fraction_product_args(dfa, flavors):
    """The products of ``_product_args`` under one flavor, each once."""
    args = {}
    for _, _, W, key, right in _product_args(dfa, flavors[:1]):
        args.setdefault((id(W), key, right), (W, key, right))
    return list(args.values())


def _fast_product_rows(dfa, W, key, right):
    """``jets._product_rows`` read back as rows {alpha: {gamma: q}}."""
    out = []
    for q, num, den in _product_rows(dfa.spec, W, key, right):
        assert type(den) is int and den > 0
        assert all(type(c) is int and c for c in num.values())
        row = {}
        for i, c in num.items():
            g, a = LEGS[i]
            row.setdefault(a, {})[g] = Fraction(c, den)
        out.append((q, row))
    return out


def _ordered_decomposition(got, want):
    assert list(got.items()) == list(want.items())


PARITY = [
    ("pbw_mul", lambda dfa, u, v: pbw_mul(dfa.spec, u, v),
     lambda dfa, u, v: rewriting_mul(dfa.spec, u, v), _pbw_pairs, equal),
    ("leg_product", lambda dfa, la, lb: nested_leg_product(dfa.spec, la, lb),
     _ref_leg_product, _leg_pairs, _cmp_leg_product),
    ("_mul_mono_into", _fast_mono_rows, _ref_mono_rows, _mono_rows,
     _cmp_mono_rows),
    ("defelem_mul", lambda dfa, x, y: defelem_mul(dfa.spec, x, y),
     lambda dfa, x, y: hseries_mul(x, y, lambda u, v: rewriting_mul(
         dfa.spec, u, v)), _defelem_pairs, equal),
    ("monomial_action", lambda dfa, alpha, gamma: monomial_action(
        dfa.spec, alpha, gamma),
     lambda dfa, alpha, gamma: chain_act_mono(
         dfa.spec, ((0,) * dfa.spec.nvars, alpha),
         CPoly.monomial(dfa.spec.nvars, gamma)), _action_args, equal),
    ("anchor_action", _fast_act, _ref_act, _act_args, equal),
    ("lift_mono", lambda dfa, key: dfa.lift_mono(key), conjugated_lift,
     _lift_keys, same_keys),
    ("deformed_coproduct_leg", deformed_coproduct_leg, spliced_coproduct_leg,
     _splice_args, same_keys),
    ("twisted_coproduct", twisted_coproduct, summed_twisted_coproduct,
     _twisted_args, same_terms),
    ("_project_leg", drinfeld._project_leg, nested_project_leg,
     _projection_args, same_terms),
    ("source_target", lambda dfa, leg, p: (dfa.source, dfa.target)[leg](p),
     lambda dfa, leg, p: sweep_base_map(dfa.spec, dfa.twistor, p, leg),
     _base_args, same_keys),
    ("star_coeffs", lambda dfa, p, q: dfa.star_coeffs(p, q),
     lambda dfa, p, q: star_from(dfa.spec, dfa.twistor, p, q), _star_args,
     same_keys),
    ("series_images", lambda dfa, leg, s: (dfa.source_series,
                                           dfa.target_series)[leg](s),
     lambda dfa, leg, s: chain_series_image(
         dfa, (dfa.source, dfa.target)[leg], s), _series_args, _cmp_series),
    ("twistor_invert", lambda dfa: deform.twistor_invert(dfa.spec, dfa.twistor),
     _ref_invert, _invert_args,
     lambda got, want: same_terms(got, want)),
    ("tensor_mul", _fast_tensor_mul,
     lambda dfa, s, t: nested_tensor_mul(dfa.spec, s, t), _mul_pairs,
     same_nested),
    ("_mul_into", lambda dfa, s, t, starts: _nest_runs(dfa, s, t, starts,
                                                       _mul_into),
     lambda dfa, s, t, starts: _nest_runs(dfa, s, t, starts, mul_into_legs),
     _nest_pairs, _cmp_nest),
    ("tensor_reduce", lambda dfa, T: tensor_reduce(dfa.spec, T),
     lambda dfa, T: nested_tensor_reduce(dfa.spec, T), _reduce_tensors,
     same_nested),
    ("same_class", lambda dfa, s, t: (_same_class(dfa.spec, s, t),
                                      _same_class(dfa.spec, t, s)),
     _ref_class, _class_pairs, equal),
    ("_cocycle_sides", lambda dfa: cocycle_classes(
        dfa, zip(*deform._cocycle_sides(dfa))),
     lambda dfa: cocycle_classes(dfa, cocycle_sides(dfa)),
     lambda dfa, flavors: [()], equal),
    ("takeuchi_check", lambda dfa, T, samples: takeuchi_check(
        dfa.spec, T, samples),
     lambda dfa, T, samples: two_product_takeuchi(dfa.spec, T, samples),
     _takeuchi_args, equal),
    ("tensor_coproduct_leg",
     lambda dfa, T, leg: tensor_coproduct_leg(dfa.spec, T, leg),
     lambda dfa, T, leg: (nested_coproduct_leg(dfa.spec, T, leg),
                          frac_coproduct_leg(dfa.spec, T, leg)),
     _copro_args, _cmp_copro),
    ("copro_basis", lambda dfa, w: nested(copro_basis(dfa.spec, leg_id(w))),
     lambda dfa, w: nested_copro_basis(dfa.spec, w), _copro_basis_args, equal),
    ("env_coproduct", lambda dfa, u: assert_integral(
        env_coproduct(dfa.spec, u)).terms,
     lambda dfa, u: frac_coproduct_leg(dfa.spec, TensorElement.of(u), 0),
     _env_copro_args, equal),
    ("TensorElement.of", lambda dfa, *us: TensorElement.of(*us),
     lambda dfa, *us: frac_tensor_of(*us), _of_args, same_ordered_terms),
    ("tensor_arithmetic", _fast_arith, _ref_arith, _arith_args, equal),
    ("tensor_series_mul", lambda dfa, a, b: tensor_series_mul(dfa.spec, a, b),
     lambda dfa, a, b: hseries_mul(a, b, lambda s, t: tensor_mul_legs(
         dfa.spec, s, t)), _series_mul_pairs, same_terms),
    ("reduce_series", lambda dfa, HT: reduce_series(dfa, HT),
     lambda dfa, HT: uncached_reduce_series(dfa, HT), _reduce_series_args,
     _cmp_reduced),
    ("_reduce_leg", lambda dfa, HT, leg: deform._reduce_leg(dfa, HT, leg),
     _ref_reduce_leg, _reduce_leg_args, _cmp_reduce_leg),
    ("basis_decompose", _fast_decompose, _ref_decompose, _decompose_args,
     _cmp_decomposition),
    ("decompose_mono", _fast_decompose_mono, _ref_decompose_mono, _mono_keys,
     _cmp_decomposition),
    ("_pair_mono", _fast_pair_mono, _ref_pair_mono, _pair_mono_args,
     _cmp_pair_mono),
    ("jet_pair", _fast_jet_pair, _ref_jet_pair, _jet_pair_args, same_window),
    ("laurent_mul", lambda dfa, ctx, x, y: laurent_mul(
        x, y, dfa.star_coeffs, ctx.order),
     lambda dfa, ctx, x, y: chain_laurent_mul(
         x, y, dfa.star_coeffs, ctx.order), _laurent_args, same_window),
    ("jet_product_eval", _fast_eval, _ref_eval, _eval_args, equal),
    ("_pair_rows", lambda dfa, ctx, lam, rows: jets._pair_rows(
        ctx, lam, rows, ctx.order + 2),
     lambda dfa, ctx, lam, rows: pair_rows_loop(ctx, lam, rows, ctx.order + 2),
     _rows_args, same_window),
    ("_pair_image", lambda dfa, ctx, lam, W, key, right: jets._pair_image(
        ctx, lam, (W, {}), key, right),
     lambda dfa, ctx, lam, W, key, right: chain_pair_env_laurent(
         ctx, lam, built_product_series(dfa.spec, W, key, right)),
     _product_args, same_window),
    ("tensor_functional_from_pair",
     lambda dfa, ctx, lam, mu, d: tensor_functional_from_pair(ctx, lam, mu, d),
     lambda dfa, ctx, lam, mu, d: unskipped_tensor_functional_from_pair(
         ctx, lam, mu, d), _from_pair_args, same_windows),
    ("jet_coproduct_functional",
     lambda dfa, ctx, lam, d: jet_coproduct_functional(ctx, lam, d),
     lambda dfa, ctx, lam, d: built_coproduct_functional(ctx, lam, d),
     _coproduct_args, same_windows),
    ("jet_source_target", _fast_source_target,
     lambda dfa, ctx, a, d: list(built_source_target(ctx, a, d)),
     _source_target_args, same_window_tables),
    ("jet_product", _fast_jet_product, _ref_jet_product, _jet_product_args,
     same_ordered_windows),
    # the integer loops against the Fraction rows they replaced, every
    # element they return integral in lowest terms
    ("pbw_mul/fraction-rows",
     lambda dfa, u, v: integral_values(pbw_mul(dfa.spec, u, v)),
     lambda dfa, u, v: frac_pbw_mul(dfa.spec, u, v), _pbw_pairs, equal),
    ("defelem_mul/fraction-rows",
     lambda dfa, x, y: integral_values(defelem_mul(dfa.spec, x, y)),
     lambda dfa, x, y: frac_defelem_mul(dfa.spec, x, y), _defelem_pairs,
     equal),
    ("basis_decompose/fraction-rows", basis_decompose, frac_basis_decompose,
     _decompose_args, _ordered_decomposition),
    ("series_images/fraction-rows",
     lambda dfa, leg, s: integral_values((dfa.source_series,
                                          dfa.target_series)[leg](s)),
     frac_series_image, _series_args, equal),
    ("_counit_contract/fraction-rows",
     lambda dfa, HT, leg: integral_values(
         deform._counit_contract(dfa, HT, leg)),
     frac_counit_contract, _counit_args, equal),
    ("_product_rows/fraction-rows", _fast_product_rows,
     lambda dfa, W, key, right: frac_product_rows(dfa.spec, W, key, right),
     _fraction_product_args, equal),
]

REGISTRY = {entry[0]: entry for entry in PARITY}

# the fast paths that keep what they build: each is called again after its
# reference, reading its own memos, and compared once more
WARM = {"tensor_mul", "tensor_reduce", "reduce_series",
        "_pair_mono", "jet_coproduct_functional", "tensor_functional_from_pair",
        "jet_source_target"}


def check(dfa, *names, flavors=(LEFT, RIGHT), inputs=None):
    """Drive the registry entries ``names`` over their inputs on one
    deformation: each fast path is called before its reference, and the
    ones in ``WARM`` once more after it.  Returns the number of argument
    tuples checked."""
    count = 0
    for name in names:
        _, fast, reference, make_inputs, compare = REGISTRY[name]
        for args in (make_inputs(dfa, flavors) if inputs is None else inputs):
            got = fast(dfa, *args)
            want = reference(dfa, *args)
            compare(got, want)
            if name in WARM:
                compare(fast(dfa, *args), want)
            count += 1
    return count
