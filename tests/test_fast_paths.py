"""Fast paths against their slow oracles.

- ``pbw_mul`` reads the structure's one product table of basis monomials;
  the oracle is the generator-by-generator rewriting u * b * e_i * ... kept
  below.
- An exponential twistor F = exp(h r) conjugates by the Hadamard expansion;
  the oracle is the two Cauchy products G . (S . F) by ``hseries_mul``.
  Its inverse is the closed form exp(-h r) once the series is checked to
  be exp(h r); the oracle is the order-by-order ``hseries_invert``.
- Cauchy products of tensor series sum each order into one dict over one
  denominator (``tensor_series_mul``); the oracle is ``hseries_mul``'s
  chain of ``+``.
- Anchor chains read one memo table of e^alpha acting on x^gamma; the
  oracle is the chain of ``anchor_apply`` calls on the whole polynomial.
- ``leg_product`` reads and fills that table, and ``pbw_mul`` fills the
  same entries; the oracle is the rewriting of the two legs.
- ``reduce_series`` reads the deformation's migration cache, one entry per
  base monomial x^gamma, and multiplies by the next leg through the leg
  table; the oracle is the reduction that re-derives the decomposition of
  each whole leg x^gamma e^alpha per call and multiplies with ``pbw_mul``.
- ``decompose_mono`` solves only x^gamma and composes x^gamma e^alpha from
  it through the leg table; the oracle is one ``basis_decompose`` of the
  whole monomial (``whole_decompose``), which the pairing and reduction
  oracles read too.
- The polynomial kernel and ``tensor_mul`` skip multiplications by 1 and
  shift by a monomial operand; the oracles are the plain loops kept below.
  ``tensor_mul`` reads unit legs from the table too, where they pass the
  other leg through; a per-leg loop over the table's entries pins the
  order of the result's terms.
- ``_mul_into`` expands 2- and 3-leg products in fixed loop nests that
  read the nested product table in place; the oracle is the general loop
  ``oracles.mul_into_legs``, compared term by term, in order and in type.
- ``lift_mono`` conjugates only x^gamma (x) 1 and Delta(e_j) and multiplies
  cached lifts for the rest, and ``deformed_coproduct_leg`` splices cached
  lifts into a leg; the oracles conjugate the whole coproduct and the whole
  spliced 3- or 4-leg series (``oracles.conjugated_lift``,
  ``oracles.spliced_coproduct_leg``), on the fixtures below and on seeded
  structures of ``oracles.random_valid_specs`` with random exponential and
  per-order twistors that need not be cocycles.
- The deformation's s_F and t_F read the twistor's tables of monomial
  images, and the star product a table of monomial pairs built from s_F;
  the oracles are the sweeps over the twistor for the whole polynomial
  (``oracles.sweep_base_map`` with the acting leg 0 for s_F and 1 for t_F,
  and ``star_from`` below for a *_F b).  Their images of a
  base series are summed into one row per order; the oracle is the chain
  of shifted ``HSeries`` additions.
- ``jet_product_eval`` reads the lift grouped by the paired leg, keeps
  each mapped image and its product rows on the functional and memoises
  the partner's paired factor of each lift term; the oracle is the
  unmemoised body that maps and multiplies every term, and each functional
  meets every partner with its rows and their supports already built.
- ``jet_product`` transposes the lift, marks the indices a nonzero factor
  reaches and evaluates only those, and a factor whose support misses the
  partner's table is zero without a pairing; the oracle is the gather
  over every index that pairs every factor
  (``oracles.gathered_jet_product``), compared in keys, order, values and
  windows on every jet fixture, seeded structures and a rank-4 one.
- ``_pair_rows`` skips pairings that are the shared zero and returns a
  lone unit term's pairing shifted; the oracle is the loop that adds
  every pairing (``oracles.pair_rows_loop``).
- ``_pair_mono`` returns the shared zero, without a decomposition, for a
  key whose leg-table terms are all pure with indices off the
  functional's table; the oracle pairs through the whole decomposition
  (``oracles.decomposed_pair_mono``).
- The jet pairings, ``laurent_mul`` and the dual product sum their terms
  in place in one ``LaurentSum``; the oracles are the chains of
  ``HLaurent`` additions they replace, and the unmemoised dual product
  pairs through those chains.
- ``tensor_functional_from_pair`` maps each first pairing once per index
  and skips entries whose first pairing vanishes or whose rows' support
  (impure terms included) misses the second functional's table, as
  ``jet_coproduct_functional`` skips entries; the oracles are the bodies
  that pair, map and multiply every entry.
- The jet layer pairs (or takes the counit of) a product with a basis
  monomial without building it, reading the product table into one
  merged row per h-order (``_pair_product``); the oracles build the
  product with ``pbw_mul`` and pair it through the ``+`` chains, and the
  bodies of ``jet_coproduct_functional`` and ``jet_source_target`` that
  built their products are kept below.  The latter also shows, on
  structures with polynomial structure functions, that the counit of
  image . e^beta vanishes off beta = 0, where ``jet_source_target``
  reads it alone.
- Every envelope product reads the table through one loop,
  ``envelope._mul_mono_into`` (an element times a basis monomial, either
  side, into nested {alpha: {gamma: q}} rows); the oracles are the three
  loops it replaced: ``pbw_mul``'s own loop, the flat product row of the
  jet pairings and the product inlined in ``basis_decompose``.  The
  Cauchy product of envelope series (``defelem_mul``) is checked against
  ``hseries_mul``'s chain of ``+``.
- ``basis_decompose`` multiplies out only the orders that survive the
  truncation, term by term through the leg table; the oracle is the
  back-substitution that maps and subtracts the whole series per term.
- The tensor layer keeps integer numerators over one denominator; the
  oracles are the Fraction loops over ``.terms`` for the product, sum,
  scale, coproduct leg, the coproduct of an element and reduction.  A
  third structure puts halves into the leg table, so ``tensor_mul``
  clears a Fraction there.
- The tensor layer and the product table key legs by interned ids; the
  oracles are the same loops on nested keys ((gamma, alpha), ...) for
  ``tensor_mul``, ``tensor_reduce``, ``copro_basis``, the coproduct leg
  and one reduction step ``_reduce_leg``, compared term by term.  Each
  reduction step is also compared in value with the step that moves each
  whole leg through its own t_F-decomposition.

- ``tensor_reduce`` reduces 2- and 3-leg tensors in fixed loops and wider
  ones in a general loop, each reading the gamma of a leg and each shift
  from tables beside the leg registry, and ``same_class`` reduces one
  signed difference over the common denominator; the oracle is the one
  loop for every width that reads the gamma off the monomial and interns
  each shift once per call (``oracles.tensor_reduce_loop``).
- The coproduct functional, the tensor functional of a pair, the dual
  source/target and the dual product read tables built once per
  deformation, context or first functional and skip pure rows whose
  support misses the table; the oracles build on every call and pair
  every row (``oracles.coproduct_functional_loop``, ``from_pair_loop``,
  ``source_target_loop``).  A left and a right
  context on one deformation, and the exponential and trivial
  deformations of one structure, never read each other's tables.

They run on the axb spec and on a bracketed structure with a non-constant
anchor; the reduction also runs on an explicit per-order twistor, and on a
structure with a polynomial structure function, where e^beta e^alpha is
not a pure monomial and the reduction step takes more than one pass.
"""

import gc
import itertools
import os
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from qgroupoid import deform, jets, kernel, tensorspace
from qgroupoid.deform import (
    DeformedEnvAlgebroid, Twistor, basis_decompose,
    defelem_from_env, defelem_mul, deformed_axiom_suite,
    deformed_coproduct_leg, exp_twistor, reduce_series, sample_defelems,
    trivial_twistor, twisted_coproduct, twistor_validate,
)
from qgroupoid.envelope import (
    GAMMA, LEGS, EnvElement, _act_into, _bump_term, _mul_mono_into,
    anchor_action, env_counit, leg_id, leg_product, monomial_action, pbw_mul,
)
from qgroupoid.errors import ConfigError
from qgroupoid.jets import (
    LEFT, RIGHT, JetContext, JetElement, coordinate_functional,
    jet_coproduct_functional, jet_product, jet_product_eval,
    jet_source_target, pbw_indices, tensor_functional_from_pair,
    unit_functional, xi_functional,
)
from qgroupoid.lierinehart import LieRinehartSpec, lr_validate
from qgroupoid.scalars import CPoly, monomials_upto
from qgroupoid.series import (
    HLaurent, HSeries, hs_const, hs_zero, hseries_invert, hseries_mul,
    laurent_mul,
)
from qgroupoid.specfile import load_spec, load_spec_file
from qgroupoid.tensorspace import (
    TensorElement, _basis_terms, _common_den, _copro_mono, _tensor,
    copro_basis, env_coproduct, same_class, tensor_coproduct_leg, tensor_mul,
    tensor_reduce, tensor_series_mul,
)

from oracles import (
    conjugated_lift, coproduct_functional_loop, decomposed_pair_mono,
    direct_star_coeffs, expand_product, from_pair_loop, gathered_jet_product,
    impure_leg_product,
    leg_table_entries, mul_into_legs, pair_rows_loop, random_valid_specs,
    reexpand, scan_misses_table, source_target_loop, spliced_coproduct_leg,
    sweep_base_map, tensor_mul_legs, tensor_reduce_loop,
)

SPEC = os.path.join(os.path.dirname(__file__), "..", "specs", "axb.spec")


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


STRUCTURES = [axb_structure, bracketed_structure]


def nested_leg_product(spec, la, lb):
    """The table entry of the basis monomials la and lb with its terms'
    ids read back as monomials ((gamma, alpha), q)."""
    return tuple((LEGS[i], q)
                 for i, q in leg_product(spec, leg_id(la), leg_id(lb)))


def test_bracketed_structure_is_lie_rinehart():
    rep = lr_validate(bracketed_structure())
    assert rep.ok(), rep.first_failure()


# -- the rewriting oracle for pbw_mul --------------------------------------------


def _bump(alpha, i, by=1):
    out = list(alpha)
    out[i] += by
    return tuple(out)


def _last_nonzero(alpha):
    for j in range(len(alpha) - 1, -1, -1):
        if alpha[j]:
            return j
    return None


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


@pytest.mark.parametrize("make", STRUCTURES)
def test_table_product_matches_rewriting(make):
    spec = make()
    rng = random.Random(2024)
    for _ in range(12):
        u, v = random_elem(spec, rng), random_elem(spec, rng)
        assert pbw_mul(spec, u, v) == rewriting_mul(spec, u, v)


# -- the Cauchy oracle for exponential twistors -----------------------------------


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


def cauchy_conjugate(dfa, S, leg):
    spec = dfa.spec
    legs = S.zero.legs

    def mt(a, b):
        return tensor_mul(spec, a, b)

    G = dfa.G.map(lambda t: t.embed(legs, leg))
    F = dfa.twistor.series.map(lambda t: t.embed(legs, leg))
    return hseries_mul(G, hseries_mul(S, F, mt), mt)


def low_monomials(spec, max_deg=2):
    alphas = [a for a in itertools.product(range(max_deg + 1), repeat=spec.rank)
              if sum(a) <= max_deg]
    gammas = [(0,) * spec.nvars, _bump((0,) * spec.nvars, 0)]
    return [(g, a) for a in alphas for g in gammas]


@pytest.mark.parametrize("make", STRUCTURES)
def test_hadamard_lift_matches_cauchy(make):
    spec = make()
    dfa = exp_dfa(spec, 3)
    zero = TensorElement.zero(spec.nvars, spec.rank, 2)
    for gamma, alpha in low_monomials(spec):
        u = EnvElement.monomial(spec.nvars, spec.rank, alpha,
                                CPoly.monomial(spec.nvars, gamma))
        S = hs_const(env_coproduct(spec, u), dfa.order, zero)
        assert dfa.lift_mono((gamma, alpha)) == cauchy_conjugate(dfa, S, 0)


@pytest.mark.parametrize("make", STRUCTURES)
def test_hadamard_coproduct_leg_matches_cauchy(make):
    spec = make()
    dfa = exp_dfa(spec, 2)
    for gamma, alpha in low_monomials(spec, 1):
        u = defelem_from_env(spec, EnvElement.monomial(
            spec.nvars, spec.rank, alpha, CPoly.monomial(spec.nvars, gamma)),
            dfa.order)
        lift = twisted_coproduct(dfa, u)
        for leg in (0, 1):
            spliced = lift.map(lambda t: tensor_coproduct_leg(spec, t, leg))
            assert deformed_coproduct_leg(dfa, lift, leg) \
                == cauchy_conjugate(dfa, spliced, leg)


def test_series_exponent_mismatch_rejected():
    spec = axb_structure()
    r = arbitrary_exponent(spec)
    series = exp_twistor(spec, r, 3).series
    with pytest.raises(ConfigError, match="closed-form inverse"):
        DeformedEnvAlgebroid(spec, Twistor(series, exponent=r.scale(2)),
                             validate=False)
    # a series that is exp(h r) except at its top order
    top = series.coeffs[:3] + (series.coeffs[3] + r.scale(Fraction(1, 7)),)
    with pytest.raises(ConfigError, match="closed-form inverse"):
        deform.twistor_invert(spec, Twistor(HSeries(3, top, series.zero),
                                            exponent=r))


def test_exp_twistor_inverse_matches_series_inversion():
    # the spec file's exp twistor at every order 1..10, and an arbitrary
    # exponent on the bracketed structure at low orders
    espec = load_spec_file(SPEC)
    cases = [(espec.build_structure(), None, order) for order in range(1, 11)]
    cases += [(bracketed_structure(), arbitrary_exponent, order)
              for order in range(1, 4)]
    for spec, make_r, order in cases:
        if make_r is None:
            tw = espec.build_twistor(spec, order)
        else:
            tw = exp_twistor(spec, make_r(spec), order)
        assert tw.exponent is not None
        unit = TensorElement.unit(spec.nvars, spec.rank, 2)
        want = hseries_invert(tw.series, lambda a, b: tensor_mul(spec, a, b),
                              a0_inv=unit, one=unit)
        got = deform.twistor_invert(spec, tw)
        assert [T.terms for T in got.coeffs] == [T.terms for T in want.coeffs]


# -- the anchor-chain oracle for the action table ----------------------------------


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


def random_poly(spec, rng):
    gammas = [g for g in itertools.product(range(4), repeat=spec.nvars)
              if sum(g) <= 3]
    out = CPoly.zero(spec.nvars)
    for _ in range(3):
        out = out + CPoly.monomial(spec.nvars, rng.choice(gammas),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


# e^alpha . x^gamma whose chain reaches zero before its first generators act:
# d2^3 kills x2^2 on axb, e3^2 = d2^2 kills x2 on the bracketed structure.
EARLY_ZEROS = {axb_structure: ((2, 3), (1, 2)),
               bracketed_structure: ((1, 0, 2), (0, 1))}


@pytest.mark.parametrize("make", STRUCTURES)
def test_action_table_matches_anchor_chain(make):
    spec = make()
    alphas = [a for a in itertools.product(range(4), repeat=spec.rank)
              if sum(a) <= 4]
    gammas = list(itertools.product(range(4), repeat=spec.nvars))
    for alpha in alphas:
        for gamma in gammas:
            assert monomial_action(spec, alpha, gamma) == chain_act_mono(
                spec, ((0,) * spec.nvars, alpha), CPoly.monomial(spec.nvars, gamma))
    alpha, gamma = EARLY_ZEROS[make]
    assert monomial_action(spec, alpha, gamma).is_zero()
    assert (alpha, gamma) in spec._act_table


@pytest.mark.parametrize("make", STRUCTURES)
def test_basis_action_and_anchor_action_match_anchor_chain(make):
    spec = make()
    rng = random.Random(7)
    keys = low_monomials(spec, 3)
    keys.append(((1,) * spec.nvars, EARLY_ZEROS[make][0]))
    for _ in range(4):
        a = random_poly(spec, rng)
        for key in keys:
            got = CPoly(spec.nvars, _act_into({}, spec, key, a, 1))
            assert got == chain_act_mono(spec, key, a)
        u = random_elem(spec, rng)
        want = CPoly.zero(spec.nvars)
        for alpha, c in u.terms.items():
            want = want + c * chain_act_mono(spec, ((0,) * spec.nvars, alpha), a)
        assert anchor_action(spec, u, a) == want


# -- the whole-monomial oracle for decompose_mono ------------------------------------


_WHOLE = weakref.WeakKeyDictionary()   # deformation -> {(flavor, key): result}


def whole_decompose(dfa, key, flavor):
    """The decomposition of the whole monomial x^gamma e^alpha by one
    ``basis_decompose``, memoised per deformation apart from its own
    cache.  The pairing and reduction oracles below read it, so they share
    no code with ``decompose_mono``'s composition."""
    memo = _WHOLE.setdefault(dfa, {})
    hit = memo.get((flavor, key))
    if hit is None:
        spec = dfa.spec
        gamma, alpha = key
        u = defelem_from_env(
            spec, EnvElement.monomial(spec.nvars, spec.rank, alpha,
                                      CPoly.monomial(spec.nvars, gamma)),
            dfa.order)
        hit = memo[flavor, key] = basis_decompose(dfa, u, flavor)
    return hit


# -- the uncached oracle for reduce_series ------------------------------------------


def uncached_reduce_series(dfa, HT):
    out = HT
    for leg in range(HT.zero.legs - 1):
        out = uncached_reduce_leg(dfa, out, leg)
    return out


def uncached_reduce_leg(dfa, HT, leg):
    """Move the coefficient of every leg-`leg` monomial onto the next leg,
    decomposing it through t_F and mapping through s_F (once per monomial
    and call, in a local dict), and multiplying by the next leg with
    ``pbw_mul`` term by term."""
    spec = dfa.spec
    n = dfa.order
    zeros_g = (0,) * spec.nvars
    acc = [dict() for _ in range(n + 1)]
    images = {}
    for k, Tk in enumerate(HT.coeffs):
        for key, c in Tk.terms.items():
            w = key[leg]
            if w[0] == zeros_g:
                _bump_term(acc[k], key, c)
                continue
            nxt = key[leg + 1]
            nxt_env = EnvElement.monomial(spec.nvars, spec.rank, nxt[1],
                                          CPoly.monomial(spec.nvars, nxt[0]))
            if w not in images:
                images[w] = [
                    (beta, dfa.source_series(aser))
                    for beta, aser in whole_decompose(dfa, w, "target").items()]
            for beta, sser in images[w]:
                for j, w_env in enumerate(sser.coeffs):
                    if k + j > n or w_env.is_zero():
                        continue
                    prod = pbw_mul(spec, w_env, nxt_env)
                    for alpha2, poly2 in prod.terms.items():
                        for g2, q2 in poly2.terms.items():
                            k2 = key[:leg] + ((zeros_g, beta), (g2, alpha2)) \
                                + key[leg + 2:]
                            _bump_term(acc[k + j], k2, c * q2)
    legs = HT.zero.legs
    coeffs = [TensorElement(spec.nvars, spec.rank, legs, d) for d in acc]
    return HSeries(n, coeffs, TensorElement.zero(spec.nvars, spec.rank, legs))


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


def axb_exp_dfa():
    espec = load_spec_file(SPEC)
    spec = espec.build_structure()
    return DeformedEnvAlgebroid(spec, espec.build_twistor(spec, 3),
                                validate=False)


def orders_dfa():
    espec = load_spec(ORDERS_SPEC)
    spec = espec.build_structure()
    return DeformedEnvAlgebroid(spec, espec.build_twistor(spec, 3),
                                validate=False)


def bracketed_exp_dfa():
    return exp_dfa(bracketed_structure(), 3)


def rational_exp_dfa():
    return exp_dfa(rational_structure(), 2)


def polynomial_structure():
    """rho(e1) = d1, rho(e2) = x1^2 d1 + d2, [e1, e2] = 2 x1 e1: a polynomial
    structure function, so e2 e1 = e1 e2 - 2 x1 e1 is not a pure monomial."""
    one, zero = CPoly.one(2), CPoly.zero(2)
    x1 = CPoly.var(2, 0)
    return LieRinehartSpec(2, 2, {(0, 1): (x1 * 2, zero)},
                           [[one, zero], [x1 * x1, one]], name="polynomial")


def polynomial_exp_dfa():
    """The abelian twist exp(h r), r = (X (x) Y - Y (x) X) / 2 with X = e1 and
    Y = e2 - x1^2 e1, so [X, Y] = 0, rho(X) = d1 and rho(Y) = d2."""
    spec = polynomial_structure()
    X = EnvElement.monomial(2, 2, (1, 0))
    Y = EnvElement.monomial(2, 2, (0, 1)) \
        - EnvElement.monomial(2, 2, (1, 0), CPoly.var(2, 0) * CPoly.var(2, 0))
    r = (TensorElement.of(X, Y) - TensorElement.of(Y, X)).scale(Fraction(1, 2))
    return DeformedEnvAlgebroid(spec, exp_twistor(spec, r, 3), validate=False)


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


def test_polynomial_fixture_is_a_valid_twist():
    dfa = polynomial_exp_dfa()
    for rep in (lr_validate(dfa.spec), twistor_validate(dfa.spec, dfa.twistor),
                deformed_axiom_suite(dfa)):
        assert rep.ok(), rep.first_failure()


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


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa])
def test_reduce_series_matches_uncached(make):
    dfa = make()
    inputs = reduction_inputs(dfa)
    assert {t.zero.legs for t in inputs} == {2, 3}
    want = [uncached_reduce_series(dfa, HT) for HT in inputs]
    # the oracle has decomposed every leg monomial already, so what the
    # first pass adds to the leg table are the products with the next leg
    before = len(leg_table_entries(dfa.spec))
    got = [reduce_series(dfa, HT) for HT in inputs]
    assert got == want
    for HT in got:
        for T in HT.coeffs:
            assert_integral(T)
    filled = len(leg_table_entries(dfa.spec))
    assert filled > before
    assert dfa._migrants
    # the second pass reads every migration and leg product from the caches
    assert [reduce_series(dfa, HT) for HT in inputs] == want
    assert len(leg_table_entries(dfa.spec)) == filled


def takeuchi_inputs(dfa):
    """Both sides of ``takeuchi_check_deformed`` on the lifts of the sample
    elements: HT (t_F(a) (x) 1) and HT (1 (x) s_F(a))."""
    spec = dfa.spec
    one = EnvElement.one(spec.nvars, spec.rank)
    out = []
    for u in sample_defelems(dfa, 2):
        lift = twisted_coproduct(dfa, u)
        for a in monomials_upto(spec.nvars, 2):
            ta = dfa.target(a).map(lambda w: TensorElement.of(w, one))
            sa = dfa.source(a).map(lambda w: TensorElement.of(one, w))
            out += [tensor_series_mul(spec, lift, ta),
                    tensor_series_mul(spec, lift, sa)]
    return out


def test_migrants_are_keyed_by_base_monomial():
    espec = load_spec_file(SPEC)
    spec = espec.build_structure()
    dfa = DeformedEnvAlgebroid(spec, espec.build_twistor(spec, 6),
                               validate=False)
    inputs = takeuchi_inputs(dfa)
    moving = {LEGS[key[0]] for HT in inputs for T in HT.coeffs
              for key in T.num if any(LEGS[key[0]][0])}
    gammas = {gamma for gamma, _ in moving}
    assert (len(moving), len(gammas)) == (113, 5)
    for HT in inputs:
        reduce_series(dfa, HT)
    # one t_F-decomposition and one set of s_F images per x^gamma
    zeros = (0,) * spec.rank
    assert set(dfa._decomp) == {("target", (g, zeros)) for g in gammas}
    assert {LEGS[g] for g in dfa._migrants} == {(g, zeros) for g in gammas}


# -- the per-polynomial sweeps as oracles for the monomial-keyed base maps ----------


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


def base_map_inputs(dfa):
    """Monomials with unit and other coefficients and random multi-term
    polynomials."""
    spec = dfa.spec
    rng = random.Random(5)
    monos = monomials_upto(spec.nvars, 2)
    return monos + [p * Fraction(-3, 2) for p in monos[1:]] \
        + [random_poly(spec, rng) for _ in range(6)]


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
@pytest.mark.parametrize("which", ["source", "target"])
def test_source_target_match_sweeps(make, which, monkeypatch):
    dfa = make()
    spec = dfa.spec
    leg = 0 if which == "source" else 1
    table = dfa.twistor.images[spec][leg]
    memo = dfa._sF if which == "source" else dfa._tF
    polys = base_map_inputs(dfa)
    # a combination whose image cancels a term, where two images of
    # monomials share one (on the axb and explicit-order twistors each
    # image term remembers its monomial, so none do)
    images = {m: sweep_base_map(spec, dfa.twistor,
                                CPoly.monomial(spec.nvars, m), leg)
              for m in itertools.product(range(3), repeat=spec.nvars)}
    cancel = cancelling_poly(spec.nvars, images)
    if cancel is not None:
        polys.append(cancel[0])
        assert cancel[1] not in flat_terms(getattr(dfa, which)(cancel[0]))
    want = [sweep_base_map(spec, dfa.twistor, p, leg) for p in polys]
    assert [getattr(dfa, which)(p) for p in polys] == want
    assert set(table) >= {m for p in polys for m in p.terms}
    # with the polynomial memo emptied, the map only reads the monomial table
    filled = dict(table)
    memo.clear()
    monkeypatch.setattr(deform, "_sweep_image", None)
    assert [getattr(dfa, which)(p) for p in polys] == want
    assert table == filled


def star_from(spec, F, a, b):
    """a *_F b as an h-expansion (list of CPoly per order): the legs of F
    act on a and on b."""
    out = []
    for Fn in F.series.coeffs:
        acc = CPoly.zero(spec.nvars)
        for key, c in Fn.terms.items():
            va = CPoly(spec.nvars, _act_into({}, spec, key[0], a, 1))
            if va.is_zero():
                continue
            vb = CPoly(spec.nvars, _act_into({}, spec, key[1], b, 1))
            if vb.is_zero():
                continue
            acc = acc + va * vb * c
        out.append(acc)
    return out


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
def test_star_coeffs_match_sweeps(make, monkeypatch):
    dfa = make()
    spec = dfa.spec
    polys = base_map_inputs(dfa)
    polys = polys[:4] + polys[-7:]
    # (x1 + x1 x2)(x2 - 1): the two x1 x2 terms cancel at order zero
    x1, x2 = CPoly.var(spec.nvars, 0), CPoly.var(spec.nvars, 1)
    cancel = (x1 + x1 * x2, x2 - 1)
    pairs = [(p, q) for p in polys for q in polys] + [cancel]
    want = [star_from(spec, dfa.twistor, p, q) for p, q in pairs]
    assert [dfa.star_coeffs(p, q) for p, q in pairs] == want
    assert (0, (1, 1)) not in flat_terms(dfa.star_coeffs(*cancel))
    # with the polynomial memos emptied, the product only reads the
    # table of monomial pairs
    filled = dict(dfa._star_mono)
    dfa._star.clear()
    dfa._sF.clear()
    monkeypatch.setattr(deform, "_sweep_image", None)
    monkeypatch.setattr(deform, "anchor_action", None)
    assert [dfa.star_coeffs(p, q) for p, q in pairs] == want
    assert dfa._star_mono == filled


# -- whole conjugations and term-by-term sweeps as oracles for the tables ---------


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
    """The i-th seeded structure of ``oracles.random_valid_specs`` (rank 2
    or 3, at most 2 variables), twisted at N = 2 + i % 2 by exp(h r) for even i
    and by an explicit per-order series (form = orders) for odd i, each
    with random 2-tensors: invertible twistors that need not be cocycles."""
    spec = random_valid_specs(seed, 6)[i]
    rng = random.Random(seed * 10 + i)
    order = 2 + i % 2
    if i % 2:
        zero = TensorElement.zero(spec.nvars, spec.rank)
        unit = TensorElement.unit(spec.nvars, spec.rank)
        tw = Twistor(HSeries(order, [unit] + [random_tensor(spec, rng)
                                              for _ in range(order)], zero))
    else:
        tw = exp_twistor(spec, random_tensor(spec, rng), order)
    return DeformedEnvAlgebroid(spec, tw, validate=False)


TABLE_CASES = [axb_exp_dfa, orders_dfa, bracketed_exp_dfa, rational_exp_dfa,
               polynomial_exp_dfa] + [
    pytest.param(lambda i=i: random_dfa(i), id="random%d" % i)
    for i in range(6)]


def basis_keys(x):
    """The basis keys of a tensor, an envelope element or a polynomial."""
    if isinstance(x, TensorElement):
        return set(x.terms)
    if isinstance(x, EnvElement):
        return {(a, g) for a, p in x.terms.items() for g in p.terms}
    return set(x.terms)


def assert_same(got, want):
    """Equal values with, order by order, the same basis keys."""
    assert got == want
    assert [basis_keys(c) for c in getattr(got, "coeffs", got)] \
        == [basis_keys(c) for c in getattr(want, "coeffs", want)]


def low_keys(spec, max_deg):
    """x^gamma e^alpha for gamma = 0 or one variable and |alpha| <= max_deg."""
    gammas = [(0,) * spec.nvars] + [_bump((0,) * spec.nvars, j)
                                   for j in range(spec.nvars)]
    return [(g, a) for a in pbw_indices(spec.rank, max_deg) for g in gammas]


def test_table_cases_include_failing_and_explicit_twistors():
    # the lift identity needs only F . G = 1, so the oracles also run on
    # invertible twistors that are not cocycles, and on form = orders
    dfas = [bracketed_exp_dfa()] + [random_dfa(i) for i in range(6)]
    assert not twistor_validate(dfas[0].spec, dfas[0].twistor).ok()
    assert any(d.twistor.exponent is None for d in dfas)
    assert sum(not twistor_validate(d.spec, d.twistor).ok() for d in dfas) >= 4
    assert all(d.spec.rank <= 4 and d.spec.nvars <= 3 and d.order <= 3
               for d in dfas[1:])
    assert {d.spec.rank for d in dfas} == {2, 3}
    assert {d.spec.nvars for d in dfas} == {0, 1, 2}


@pytest.mark.parametrize("make", TABLE_CASES)
def test_lift_products_match_conjugated_lifts(make):
    """``lift_mono`` multiplies the lifts of x^gamma e^(alpha - e_j) and
    e_j; the oracle conjugates Delta(x^gamma e^alpha) whole."""
    dfa = make()
    keys = low_keys(dfa.spec, 3)
    for key in keys:
        assert_same(dfa.lift_mono(key), conjugated_lift(dfa, key))
    assert set(dfa._lift) == set(keys)


@pytest.mark.parametrize("make", TABLE_CASES)
def test_spliced_lifts_match_conjugated_splices(make):
    """``deformed_coproduct_leg`` splices the cached lift of each leg
    monomial; the oracle splices the classical coproduct and conjugates the
    3- or 4-leg series by F and G at that leg."""
    dfa = make()
    spec = dfa.spec
    elems = sample_defelems(dfa, 1)[:2]
    if spec.nvars:
        elems.append(defelem_from_env(spec, EnvElement.monomial(
            spec.nvars, spec.rank, _bump((0,) * spec.rank, 0),
            CPoly.var(spec.nvars, 0)), dfa.order))
    lifts = [twisted_coproduct(dfa, u) for u in elems]
    for HT in lifts:
        for leg in (0, 1):
            assert_same(deformed_coproduct_leg(dfa, HT, leg),
                        spliced_coproduct_leg(dfa, HT, leg))
    wide = deformed_coproduct_leg(dfa, lifts[0], 1)
    for leg in (0, 1, 2):
        four = deformed_coproduct_leg(dfa, wide, leg)
        assert four.zero.legs == 4
        assert_same(four, spliced_coproduct_leg(dfa, wide, leg))


@pytest.mark.parametrize("make", TABLE_CASES)
def test_monomial_images_match_term_sweeps(make):
    """s_F and t_F read the twistor's table of monomial images, swept with
    F's terms grouped by acting leg; the oracle sweeps every term of F for
    the whole polynomial."""
    dfa = make()
    spec, tw = dfa.spec, dfa.twistor
    rng = random.Random(3)
    polys = monomials_upto(spec.nvars, 2) \
        + [random_poly(spec, rng) for _ in range(3)]
    for p in polys:
        assert_same(dfa.source(p), sweep_base_map(spec, tw, p, 0))
        assert_same(dfa.target(p), sweep_base_map(spec, tw, p, 1))
    monos = {m for p in polys for m in p.terms}
    assert set(tw.images) == {spec}
    assert set(tw.images[spec][0]) == set(tw.images[spec][1]) == monos


@pytest.mark.parametrize("make", TABLE_CASES)
def test_star_pair_table_matches_direct_star(make):
    """``star_coeffs`` sums a table of monomial pairs weighted by the two
    coefficients; the oracle lets s_F(a), swept whole, act on b."""
    dfa = make()
    spec = dfa.spec
    rng = random.Random(4)
    polys = monomials_upto(spec.nvars, 1) \
        + [random_poly(spec, rng) for _ in range(3)]
    pairs = [(p, q) for p in polys for q in polys]
    for p, q in pairs:
        assert_same(dfa.star_coeffs(p, q), direct_star_coeffs(dfa, p, q))
    assert set(dfa._star_mono) == {(m, m2) for p, q in pairs
                                   for m in p.terms for m2 in q.terms}


def test_twistor_images_are_kept_per_structure():
    """One twistor on two structures of the same shape whose anchors differ
    by a factor 2: each structure's s_F and t_F come from its own sweeps.
    The tables are keyed by the structure objects, which they keep alive;
    a key by ``id`` would let a new structure at a dead one's address read
    its images."""
    espec = load_spec_file(SPEC)
    # the series alone: exp(h r) on axb is not exp(h r) on the other
    tw = Twistor(espec.build_twistor(espec.build_structure(), 3).series)
    zero = CPoly.zero(2)

    def doubled():
        two = CPoly.const(2, 2)
        return LieRinehartSpec(2, 2, {}, [[two, zero], [zero, two]],
                               name="doubled")

    monos = monomials_upto(2, 2)

    def images(make):
        """The structure's s_F and t_F images of ``monos``, after checking
        them against the sweeps; the structure dies on return."""
        spec = make()
        twistor_validate(spec, tw)
        dfa = DeformedEnvAlgebroid(spec, tw, validate=False)
        out = []
        for leg, mapper in ((0, dfa.source), (1, dfa.target)):
            got = [mapper(a) for a in monos]
            assert got == [sweep_base_map(spec, tw, a, leg) for a in monos]
            out.append(got)
        return out

    seen = {}
    for make in (axb_structure, doubled, axb_structure, doubled):
        seen[make] = images(make)
        gc.collect()
    assert seen[axb_structure][0] != seen[doubled][0]
    assert len(tw.images) == 4
    assert all(isinstance(spec, LieRinehartSpec) for spec in tw.images)


def chain_series_image(dfa, mapper, aser):
    """sum_k h^k mapper(a_k) as the chain of shifted series additions."""
    out = hs_zero(dfa.order, EnvElement.zero(dfa.spec.nvars, dfa.spec.rank))
    for k, ak in enumerate(aser.coeffs):
        if not ak.is_zero():
            out = out + mapper(ak).shift(k)
    return out


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
def test_series_images_match_chains(make):
    dfa = make()
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
    for aser in sers:
        for got, mapper in ((dfa.source_series(aser), dfa.source),
                            (dfa.target_series(aser), dfa.target)):
            want = chain_series_image(dfa, mapper, aser)
            assert got == want
            assert flat_terms(got) == flat_terms(want)


# -- plain loops for the kernel and tensor_mul ------------------------------------


def plain_poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def plain_poly_scale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def random_kernel_poly(rng, nvars=3):
    """Empty, unit monomials, scaled monomials and sums with unit terms."""
    shape = rng.choice(("empty", "unit", "monomial", "sum", "sum"))
    if shape == "empty":
        return {}
    size = 1 if shape in ("unit", "monomial") else rng.randint(2, 5)
    out = {}
    for _ in range(size):
        key = tuple(rng.randint(0, 3) for _ in range(nvars))
        if shape == "unit" or rng.random() < 0.4:
            out[key] = Fraction(1)
        else:
            out[key] = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
    return out


def test_kernel_fast_paths_match_plain_loops():
    rng = random.Random(5)
    for _ in range(400):
        a, b = random_kernel_poly(rng), random_kernel_poly(rng)
        a0, b0 = dict(a), dict(b)
        want = plain_poly_mul(a, b)
        for got in (kernel.poly_mul(a, b), kernel.poly_mul(b, a)):
            assert got == want
            assert all(type(v) is Fraction for v in got.values())
        for c in (Fraction(1), Fraction(0), Fraction(-1), Fraction(3, 2)):
            got = kernel.poly_scale(a, c)
            assert got == plain_poly_scale(a, c)
            assert got is not a
        assert (a, b) == (a0, b0)


def plain_tensor_mul(s, t, spec):
    def env(key):
        gamma, alpha = key
        return EnvElement.monomial(spec.nvars, spec.rank, alpha,
                                   CPoly.monomial(spec.nvars, gamma))

    out = {}
    for ka, ca in s.terms.items():
        for kb, cb in t.terms.items():
            prods = [pbw_mul(spec, env(ka[l]), env(kb[l]))
                     for l in range(s.legs)]
            for combo in itertools.product(*[
                    [((g, al), q) for al, poly in p.terms.items()
                     for g, q in poly.terms.items()] for p in prods]):
                key = tuple(k for k, _ in combo)
                c = ca * cb
                for _, q in combo:
                    c = c * q
                out[key] = out.get(key, Fraction(0)) + c
    return TensorElement(s.nvars, s.rank, s.legs, out)


def per_leg_tensor_mul(s, t, spec):
    """Every leg product through leg_product and expand_product, with no
    unit or single-term shortcut: pins the order of the result's terms."""
    out = {}
    for ka, ca in s.terms.items():
        for kb, cb in t.terms.items():
            expand_product(out, [nested_leg_product(spec, x, y)
                                  for x, y in zip(ka, kb)],
                            ca * cb)
    return out


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
    out += [r.embed(legs, pos) for pos in range(legs - 1)]
    for pos in range(legs):
        out.append(TensorElement.of(*[
            one if l == pos else random_elem(spec, rng, 2)
            for l in range(legs)]))
    out.append(TensorElement.unit(spec.nvars, spec.rank, legs).scale(3))
    return out


@pytest.mark.parametrize("make", STRUCTURES)
def test_tensor_mul_matches_plain_loop(make):
    spec = make()
    r = arbitrary_exponent(spec)
    gens = [TensorElement.of(EnvElement.gen(spec.nvars, spec.rank, i),
                             EnvElement.one(spec.nvars, spec.rank))
            for i in range(spec.rank)]
    factors = [r, r.flip(), r.scale(3), TensorElement.unit(spec.nvars,
                                                          spec.rank)] + gens
    for s in factors:
        for t in factors:
            assert tensor_mul(spec, s, t) == plain_tensor_mul(s, t, spec)
    pairs = []
    for legs in (2, 3, 4):
        wide = wide_tensors(spec, legs)
        # two outer products of random elements make too many term pairs
        few = wide[:legs + 1] + wide[-1:]
        pairs += [(s, t) for s in wide for t in few]
        pairs += [(t, s) for s in wide[legs + 1:-1] for t in few]
    spec._leg_table.clear()
    want = [plain_tensor_mul(s, t, spec) for s, t in pairs]
    order = [list(per_leg_tensor_mul(s, t, spec).items()) for s, t in pairs]
    for _ in range(2):
        # the second pass reads every leg product from the leg table; a
        # 4-leg pair takes the general loop of the oracles, which the engine
        # refuses
        got = [(tensor_mul if s.legs < 4 else tensor_mul_legs)(spec, s, t)
               for s, t in pairs]
        assert got == want
        assert [list(g.terms.items()) for g in got] == order
        assert leg_table_entries(spec)
    s, t = pairs[-1]
    assert s.legs == 4
    with pytest.raises(ConfigError, match="2 or 3 legs"):
        tensor_mul(spec, s, t)


# -- the rewriting as the oracle for the product table -----------------------------


@pytest.mark.parametrize("make", STRUCTURES)
def test_leg_product_matches_pbw_mul(make):
    # pbw_mul reads the same table, so the rewriting is the oracle
    spec = make()
    spec._leg_table.clear()
    alphas = [a for a in itertools.product(range(3), repeat=spec.rank)
              if sum(a) <= 2]
    gammas = [(0,) * spec.nvars, _bump((0,) * spec.nvars, 0),
              (1,) * spec.nvars]
    legs = [(g, a) for a in alphas for g in gammas]
    unit = leg_id(((0,) * spec.nvars, (0,) * spec.rank))
    sizes = set()
    for la in legs:
        for lb in legs:
            ids = (leg_id(la), leg_id(lb))
            entry = leg_product(spec, *ids)
            got = tuple((LEGS[i], q) for i, q in entry)
            want = rewriting_mul(spec, *(EnvElement.monomial(
                spec.nvars, spec.rank, a, CPoly.monomial(spec.nvars, g))
                for g, a in (la, lb)))
            assert dict(got) == {(g, a): q for a, p in want.terms.items()
                                 for g, q in p.terms.items()}
            assert len(dict(got)) == len(got) and all(q for _, q in got)
            assert spec._leg_table[ids[0]][ids[1]] is entry
            assert leg_product(spec, *ids) is entry
            sizes.add(len(got))
        # a unit leg's entries pass the other leg through
        assert leg_product(spec, unit, leg_id(la)) == ((leg_id(la), 1),)
        assert leg_product(spec, leg_id(la), unit) == ((leg_id(la), 1),)
    # the rewriting of an entry fills the entries it recurses into
    assert len(leg_table_entries(spec)) >= len(legs) ** 2
    # products that expand into several basis terms are covered
    assert max(sizes) > 2


@pytest.mark.parametrize("make", STRUCTURES)
def test_pbw_mul_fills_the_one_product_table(make):
    spec = make()
    assert not hasattr(spec, "_mono_table")
    spec._leg_table.clear()
    nvars, rank = spec.nvars, spec.rank
    # e_m * x_p e_1 rewrites through the anchor and past e_1
    x_last = _bump((0,) * nvars, nvars - 1)
    e_last = _bump((0,) * rank, rank - 1)
    e_first = _bump((0,) * rank, 0)
    u = EnvElement.monomial(nvars, rank, e_last)
    v = EnvElement.monomial(nvars, rank, e_first,
                            CPoly.monomial(nvars, x_last))
    prod = pbw_mul(spec, u, v)
    key = (leg_id(((0,) * nvars, e_last)), leg_id((x_last, e_first)))
    entry = spec._leg_table[key[0]][key[1]]
    assert leg_product(spec, *key) is entry
    assert {LEGS[i]: q for i, q in entry} == {
        (g, a): q for a, p in prod.terms.items() for g, q in p.terms.items()}
    assert len(entry) > 1


# -- the Fraction loops as oracles for the integer tensor layer -------------------


INTEGER_LAYER_STRUCTURES = [axb_structure, bracketed_structure,
                            rational_structure]


def test_rational_structure_is_lie_rinehart():
    rep = lr_validate(rational_structure())
    assert rep.ok(), rep.first_failure()


def assert_integral(T):
    """Integer numerators, none zero, over one positive int denominator."""
    assert type(T.den) is int and T.den > 0
    assert all(type(c) is int and c for c in T.num.values())
    return T


def frac_bump(out, key, c):
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def frac_add(s, t, sign=1):
    out = dict(s.terms)
    for k, c in t.terms.items():
        frac_bump(out, k, sign * c)
    return out


def frac_scale(T, c):
    c = Fraction(c)
    return {k: v * c for k, v in T.terms.items() if v * c}


def frac_tensor_mul(spec, s, t):
    """Leg products from the product table, coefficients as Fractions."""
    out = {}
    for ka, ca in s.terms.items():
        for kb, cb in t.terms.items():
            expand_product(out, [nested_leg_product(spec, x, y)
                                  for x, y in zip(ka, kb)],
                            ca * cb)
    return out


def frac_scale_leg(T, leg, poly):
    out = {}
    for key, c in T.terms.items():
        gamma, alpha = key[leg]
        for g2, q in poly.terms.items():
            gg = tuple(a + b for a, b in zip(gamma, g2))
            frac_bump(out, key[:leg] + ((gg, alpha),) + key[leg + 1:], c * q)
    return out


def frac_copro_mono(spec, alpha):
    """Delta(e^alpha) as the product of the primitive (e_i (x) 1 + 1 (x) e_i)
    over the generators of e^alpha, in Fractions."""
    one = EnvElement.one(spec.nvars, spec.rank)
    out = {((((0,) * spec.nvars, (0,) * spec.rank),) * 2): Fraction(1)}
    for i, a in enumerate(alpha):
        gen = EnvElement.gen(spec.nvars, spec.rank, i)
        prim = TensorElement(spec.nvars, spec.rank, 2, frac_add(
            TensorElement.of(gen, one), TensorElement.of(one, gen)))
        for _ in range(a):
            out = frac_tensor_mul(
                spec, TensorElement(spec.nvars, spec.rank, 2, out), prim)
    return TensorElement(spec.nvars, spec.rank, 2, out)


def frac_coproduct_leg(spec, T, leg):
    """Delta(x^gamma e^alpha) as Delta(e^alpha) with its left leg scaled by
    the polynomial x^gamma."""
    out = {}
    for key, c in T.terms.items():
        gamma, alpha = key[leg]
        piece = frac_scale_leg(frac_copro_mono(spec, alpha), 0,
                               CPoly.monomial(spec.nvars, gamma))
        for k2, c2 in piece.items():
            frac_bump(out, key[:leg] + k2 + key[leg + 1:], c * c2)
    return out


def frac_reduce(spec, T):
    out = {}
    zeros = (0,) * spec.nvars
    for key, c in T.terms.items():
        total = [sum(g) for g in zip(*(gamma for gamma, _ in key))]
        newkey = tuple((zeros, alpha) for _, alpha in key[:-1]) \
            + ((tuple(total), key[-1][1]),)
        frac_bump(out, newkey, c)
    return out


def integer_layer_inputs(spec):
    """2-leg tensors with denominators 1, 3 and 12, the unit, a zero and
    3-leg tensors."""
    r = arbitrary_exponent(spec)
    one = EnvElement.one(spec.nvars, spec.rank)
    gen = EnvElement.gen(spec.nvars, spec.rank, spec.rank - 1)
    x1 = EnvElement.from_poly(spec.rank, CPoly.var(spec.nvars, 0))
    two = [r, r.flip(), r.scale(Fraction(-3, 4)), r + r.flip().scale(3),
           TensorElement.unit(spec.nvars, spec.rank),
           TensorElement.of(gen, x1), r - r]
    return two, wide_tensors(spec, 3)[:4] + [r.embed(3, 1).scale(Fraction(1, 4))]


@pytest.mark.parametrize("make", INTEGER_LAYER_STRUCTURES)
def test_integer_layer_matches_fraction_loops(make):
    spec = make()
    two, three = integer_layer_inputs(spec)
    poly = CPoly(spec.nvars, {(0,) * spec.nvars: Fraction(-1, 3),
                              (1,) + (0,) * (spec.nvars - 1): Fraction(5, 2)})
    for T in two + three:
        assert_integral(T)
        assert assert_integral(-T).terms == frac_scale(T, -1)
        assert assert_integral(tensor_reduce(spec, T)).terms \
            == frac_reduce(spec, T)
        for c in (0, 1, -1, 5, Fraction(3, 4), Fraction(-7, 6)):
            assert assert_integral(T.scale(c)).terms == frac_scale(T, c)
        for leg in range(T.legs):
            assert assert_integral(tensor_coproduct_leg(spec, T, leg)).terms \
                == frac_coproduct_leg(spec, T, leg)
    # the coproduct of an element is the coproduct leg of its 1-leg tensor;
    # the rational coefficient poly loads the left leg
    gens = [EnvElement.monomial(spec.nvars, spec.rank, alpha, poly)
            for alpha in pbw_indices(spec.rank, 2)]
    for u in gens + [sum(gens[1:], gens[0])]:
        assert assert_integral(env_coproduct(spec, u)).terms \
            == frac_coproduct_leg(spec, TensorElement.of(u), 0)
    # the memo may hold Delta(e^alpha) over any denominator; the coproduct
    # leg aligns pieces over different ones
    for i, alpha in enumerate(list(spec._copro_table)):
        spec._copro_table[alpha] = spec._copro_table[alpha].scale(i + 2) \
            .scale(Fraction(1, i + 2))
    assert len({T.den for T in spec._copro_table.values()}) > 2
    for T in two + three:
        for leg in range(T.legs):
            assert assert_integral(tensor_coproduct_leg(spec, T, leg)).terms \
                == frac_coproduct_leg(spec, T, leg)
    for group in (two, three):
        for s in group:
            for t in group:
                assert assert_integral(s + t).terms == frac_add(s, t)
                assert assert_integral(s - t).terms == frac_add(s, t, -1)
                assert assert_integral(tensor_mul(spec, s, t)).terms \
                    == frac_tensor_mul(spec, s, t)
    assert_integral(two[0].flip())
    assert_integral(two[0].embed(4, 2))
    entries = [q for hit in leg_table_entries(spec).values() for _, q in hit]
    assert all(type(q) in (int, Fraction) for q in entries)
    # integral entries are ints; the rational structure has a non-integral one
    assert all(type(q) is int for q in entries if q.denominator == 1)
    assert any(type(q) is Fraction for q in entries) \
        == (make is rational_structure)


# -- the general loop as the oracle for the 2- and 3-leg loop nests ---------------


def loop_nest_inputs(dfa):
    """2- and 3-leg tensors: the integer-layer inputs, the twistor's
    coefficients, and their 3-leg images as the cocycle identity builds
    them (F12, F23 and (Delta (x) id) F)."""
    spec = dfa.spec
    two, three = integer_layer_inputs(spec)
    F = dfa.twistor.series.coeffs[1:3]
    two += F
    three += [T for Fk in F for T in (Fk.embed(3, 0), Fk.embed(3, 1),
                                      tensor_coproduct_leg(spec, Fk, 0))]
    return two, three


@pytest.mark.parametrize("make", [axb_exp_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa])
def test_loop_nests_match_general_loop(make):
    """``_mul_into`` on 2- and 3-leg tensors against the general loop
    ``oracles.mul_into_legs``: the same terms in the same order, the same int or
    Fraction values, from empty and non-empty accumulators, with m = 1 and
    m != 1, and into an accumulator that the product cancels to empty."""
    dfa = make()
    spec = dfa.spec
    spec._leg_table.clear()
    fractions = cancelled = 0
    for group in loop_nest_inputs(dfa):
        prev = {}
        for s in group:
            for t in group:
                # the nests run first and fill the product table
                for start, m in (({}, 1), (prev, 6), (prev, 1)):
                    nest = tensorspace._mul_into(dict(start), spec, s, t, m)
                    general = mul_into_legs(dict(start), spec, s, t, m)
                    assert list(nest.items()) == list(general.items())
                    assert [type(c) for c in nest.values()] \
                        == [type(c) for c in general.values()]
                    fractions += any(type(c) is Fraction
                                     for c in nest.values())
                want = mul_into_legs({}, spec, s, t, 1)
                negated = {k: -c for k, c in want.items()}
                assert tensorspace._mul_into(negated, spec, s, t, 1) == {}
                cancelled += bool(want)
                prev = want
    multi = sum(len(hit) > 1 for hit in leg_table_entries(spec).values())
    # a leg product with several terms, a cancelling product and, on the
    # rational structure only, Fraction leg coefficients
    assert multi and cancelled
    assert bool(fractions) == (make is rational_exp_dfa)


def small_tensors():
    """Tensors on axb's legs with integer numerators over a denominator."""
    legs = [(g, a) for g in ((0, 0), (1, 0), (0, 2))
            for a in ((0, 0), (1, 0), (0, 1))]
    leg = st.sampled_from(legs)
    terms = st.dictionaries(st.tuples(leg, leg),
                            st.integers(-6, 6).filter(bool), max_size=4)
    return st.builds(
        lambda t, d: TensorElement(2, 2, 2, t).scale(Fraction(1, d)),
        terms, st.integers(1, 12))


NONZERO_FRACTIONS = st.fractions(min_value=-5, max_value=5,
                                 max_denominator=9).filter(bool)


@settings(max_examples=60, deadline=None)
@given(small_tensors(), NONZERO_FRACTIONS, small_tensors())
def test_equal_values_over_different_denominators(T, c, U):
    # scale(c) then scale(1/c) multiplies both numerators and denominator
    V = T.scale(c).scale(1 / c)
    assert V.den == T.den * c.denominator * abs(c.numerator)
    assert V == T and hash(V) == hash(T)
    assert V.terms == T.terms
    # the sum aligns to the lcm; the difference cancels to zero
    W = (T + U) - U
    assert W == T and hash(W) == hash(T)
    assert (T.scale(c) - V.scale(c)).is_zero()
    assert assert_integral(W) is W and assert_integral(V) is V
    assert (T == U) == (T.terms == U.terms)


# -- the nested-key tensor layer as the oracle for the interned leg ids --------------
#
# The tensor layer keys numerators by tuples of leg ids and the product table
# by pairs of them.  The oracles below are the same loops on nested keys
# ((gamma, alpha), ...), reading the table through ``nested_leg_product``;
# each returns (terms in order, den), compared term by term, order and
# denominator included, with the interned result read back as monomials.


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


def nested_tensor_mul(spec, s, t):
    unit = ((0,) * s.nvars, (0,) * s.rank)
    out = {}
    for ka, ca in nested(s)[0]:
        for kb, cb in nested(t)[0]:
            c = ca * cb
            factors = []
            single = True
            for la, lb in zip(ka, kb):
                if la == unit:
                    factors.append(((lb, 1),))
                elif lb == unit:
                    factors.append(((la, 1),))
                else:
                    f = nested_leg_product(spec, la, lb)
                    if len(f) != 1:
                        single = False
                    factors.append(f)
            if not single:
                expand_product(out, factors, c)
                continue
            key = []
            for ((k, q),) in factors:
                key.append(k)
                if q != 1:
                    c *= q
            _bump_term(out, tuple(key), c)
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


def nested_migrants(dfa, w):
    moved = [(beta, [_basis_terms(u) for u in dfa.source_series(aser).coeffs])
             for beta, aser in whole_decompose(dfa, w, "target").items()]
    d = lcm(*[q.denominator for _, orders in moved
              for terms in orders for _, q in terms])
    return d, [(beta, [tuple((key, q.numerator * (d // q.denominator))
                             for key, q in terms) for terms in orders])
               for beta, orders in moved]


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


def full_reduce_leg(dfa, HT, leg):
    """One reduction step through the migrants of the t_F-decomposition of
    each whole leg x^gamma e^alpha (``whole_decompose(dfa, w, "target")``), on
    nested keys; its values are those of the reduction step."""
    spec = dfa.spec
    n = dfa.order
    zeros_g = (0,) * spec.nvars
    coeffs = [nested(Tk) for Tk in HT.coeffs]
    moving = {}
    for terms, _ in coeffs:
        for key, _ in terms:
            w = key[leg]
            if w[0] != zeros_g and w not in moving:
                moving[w] = nested_migrants(dfa, w)
    den = lcm(*[d for _, d in coeffs]) * lcm(*[d for d, _ in moving.values()])
    acc = [dict() for _ in range(n + 1)]
    for k, (terms, tden) in enumerate(coeffs):
        up = den // tden
        for key, c in terms:
            w = key[leg]
            if w[0] == zeros_g:
                _bump_term(acc[k], key, c * up)
                continue
            d, moved = moving[w]
            c *= up // d
            nxt = key[leg + 1]
            head, tail = key[:leg], key[leg + 2:]
            for beta, orders in moved:
                pure = (zeros_g, beta)
                for j, terms_j in enumerate(orders):
                    if k + j > n:
                        break
                    for wl, cw in terms_j:
                        for l2, q in nested_leg_product(spec, wl, nxt):
                            _bump_term(acc[k + j], head + (pure, l2) + tail,
                                       c * cw * q)
    return [nested_cleared(d, den) for d in acc]


def nested_values(coeffs):
    """The per-order {monomial key: Fraction} of (terms, den) pairs."""
    return [{key: Fraction(c, den) for key, c in terms} for terms, den in coeffs]


def carries(dfa, HT, leg):
    """Whether reducing ``leg`` of HT meets a product e^beta e^alpha with a
    term x^g e^delta, g != 0, for some beta of the migrants of x^gamma."""
    spec = dfa.spec
    zeros_g, zeros_a = (0,) * spec.nvars, (0,) * spec.rank
    for T in HT.coeffs:
        for key, _ in nested(T)[0]:
            gamma, alpha = key[leg]
            if gamma == zeros_g:
                continue
            for beta, orders in nested_migrants(dfa, (gamma, zeros_a))[1]:
                if any(orders) and any(
                        l[0] != zeros_g for l, _ in nested_leg_product(
                            spec, (zeros_g, beta), (zeros_g, alpha))):
                    return True
    return False


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa])
def test_tensor_series_mul_matches_chain(make):
    dfa = make()
    spec = dfa.spec
    n = dfa.order
    F, G = dfa.twistor.series, dfa.G
    one = EnvElement.one(spec.nvars, spec.rank)
    ta = dfa.target(CPoly.var(spec.nvars, 0)).map(
        lambda u: TensorElement.of(u, one))
    lifts = [twisted_coproduct(dfa, u) for u in sample_defelems(dfa, 1)]
    zero3 = TensorElement.zero(spec.nvars, spec.rank, 3)
    r3 = hs_const(arbitrary_exponent(spec).embed(3, 1).scale(Fraction(1, 6)),
                  n, zero3)
    pairs = [(F, G), (G, F), (lifts[0], lifts[-1]), (lifts[-1], ta),
             (F, ta - ta.shift(1)),
             (deformed_coproduct_leg(dfa, lifts[0], 1), r3),
             (F.map(lambda t: t.embed(3, 0)), r3)]
    for a, b in pairs:
        got = tensor_series_mul(spec, a, b)
        want = hseries_mul(a, b, lambda s, t: tensor_mul(spec, s, t))
        assert [T.terms for T in got.coeffs] == [T.terms for T in want.coeffs]
        for T in got.coeffs:
            assert_integral(T)
    # F G = 1 (x) 1: every order above zero cancels to the empty tensor
    FG = tensor_series_mul(spec, F, G)
    assert all(not T.num and T.den == 1 for T in FG.coeffs[1:])


@pytest.mark.parametrize("make", INTEGER_LAYER_STRUCTURES)
def test_interned_tensor_layer_matches_nested_keys(make):
    spec = make()
    two, three = integer_layer_inputs(spec)
    four = wide_tensors(spec, 4)
    # the outer products of random elements only as left factors
    groups = [(two, two), (three, three), (four, four[:5] + four[-1:])]
    for group, right in groups:
        for T in group:
            # a 4-leg reduction raises (test_reduce_kernels_match_the_loop)
            if T.legs < 4:
                assert nested(tensor_reduce(spec, T)) \
                    == nested_tensor_reduce(spec, T)
            for leg in range(T.legs):
                assert nested(tensor_coproduct_leg(spec, T, leg)) \
                    == nested_coproduct_leg(spec, T, leg)
            for key, _ in nested(T)[0]:
                for w in key:
                    assert nested(copro_basis(spec, leg_id(w))) \
                        == nested_copro_basis(spec, w)
            mul = tensor_mul if T.legs < 4 else tensor_mul_legs
            for t in right:
                assert nested(mul(spec, T, t)) == nested_tensor_mul(spec, T, t)
    # the inputs reach every shape the loops distinguish: legs that are not
    # pure on several legs, and products of several basis terms
    assert any(k[0] != (0,) * spec.nvars for T in four
               for key, _ in nested(T)[0] for k in key[:-1])
    assert any(len(hit) > 1 for hit in leg_table_entries(spec).values())


def four_leg_inputs(dfa):
    """The coproduct at the first leg of 3-leg coproducts of lifts of the
    generators."""
    out = []
    for u in sample_defelems(dfa, 1):
        lift = twisted_coproduct(dfa, u)
        out.append(deformed_coproduct_leg(
            dfa, deformed_coproduct_leg(dfa, lift, 0), 0))
    return out


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa])
def test_reduce_leg_matches_nested_keys(make):
    dfa = make()
    inputs = reduction_inputs(dfa)[:6] + four_leg_inputs(dfa)[:1]
    assert {HT.zero.legs for HT in inputs} == {2, 3, 4}
    moved = 0
    carried = False
    for HT in inputs:
        chained = HT
        for leg in range(HT.zero.legs - 1):
            # each leg of the raw input, and each leg after the earlier
            # ones were reduced
            for src in (HT, chained):
                got = deform._reduce_leg(dfa, src, leg)
                assert [nested(T) for T in got.coeffs] \
                    == nested_reduce_leg(dfa, src, leg)
                assert nested_values([nested(T) for T in got.coeffs]) \
                    == nested_values(full_reduce_leg(dfa, src, leg))
                for T in got.coeffs:
                    assert_integral(T)
                carried = carried or carries(dfa, src, leg)
            moved += sum(1 for T in HT.coeffs for key, _ in nested(T)[0]
                         if any(key[leg][0]))
            chained = deform._reduce_leg(dfa, chained, leg)
        assert [nested(T) for T in chained.coeffs] \
            == [nested(T) for T in reduce_series(dfa, HT).coeffs]
    assert moved
    # only the polynomial structure function makes e^beta e^alpha impure
    assert carried == (make is polynomial_exp_dfa)


# -- the whole-series oracle for basis_decompose -------------------------------------


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


def decomposition_inputs(dfa, flavor):
    """Monomials at every order, random multi-order, multi-term series, and
    images map_F(a) e^beta, whose higher orders cancel exactly."""
    spec = dfa.spec
    n = dfa.order
    zero = EnvElement.zero(spec.nvars, spec.rank)
    out = []
    for k in range(n + 1):
        for gamma, alpha in low_monomials(spec):
            u = EnvElement.monomial(spec.nvars, spec.rank, alpha,
                                    CPoly.monomial(spec.nvars, gamma))
            out.append(HSeries(n, [u if j == k else zero
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


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
@pytest.mark.parametrize("flavor", ["source", "target"])
def test_basis_decompose_matches_backsubstitution(make, flavor):
    dfa = make()
    for u in decomposition_inputs(dfa, flavor):
        want = backsubstitution_decompose(dfa, u, flavor)
        got = basis_decompose(dfa, u, flavor)
        assert list(got) == list(want)
        assert got == want
        assert all(any(c.terms for c in aser.coeffs) for aser in got.values())
        assert reexpand(dfa, got, flavor) == u


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa,
                                  central_exp_dfa])
@pytest.mark.parametrize("flavor", ["source", "target"])
def test_decompose_mono_matches_whole_monomial(make, flavor, monkeypatch):
    dfa = make()
    spec = dfa.spec
    solved = []
    real = deform.basis_decompose

    def recording(dfa_, u, flavor_):
        solved.append(u)
        return real(dfa_, u, flavor_)

    monkeypatch.setattr(deform, "basis_decompose", recording)
    gammas = pbw_indices(spec.nvars, 2)
    for gamma in gammas:
        for alpha in pbw_indices(spec.rank, 2):
            got = dfa.decompose_mono((gamma, alpha), flavor)
            want = whole_decompose(dfa, (gamma, alpha), flavor)
            assert list(got) == list(want)
            assert got == want
            assert all(any(c.terms for c in aser.coeffs)
                       for aser in got.values())
    # one solve per x^gamma; the others are the impure remainders, which
    # only a polynomial structure function makes, all O(h)
    bases = [defelem_from_env(spec, EnvElement.from_poly(
        spec.rank, CPoly.monomial(spec.nvars, g)), dfa.order) for g in gammas]
    assert [sum(u == b for u in solved) for b in bases] == [1] * len(bases)
    rest = [u for u in solved if u not in bases]
    assert bool(rest) == (make in (polynomial_exp_dfa, central_exp_dfa))
    assert all(u.coeffs[0].is_zero() for u in rest)
    composed = ((1,) + (0,) * (spec.nvars - 1), (0,) * (spec.rank - 1) + (1,))
    with pytest.raises(ConfigError):
        dfa.decompose_mono(composed, "sideways")


# -- the + chains behind the pairing sums -----------------------------------------


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


def chain_pair_mono(ctx, lam, key, memo):
    """lam on a basis monomial: the star pairings over the flavor
    decomposition, added to a zero up to the truncation order.  ``memo``
    holds this oracle's own pairings, keyed by (lam, key)."""
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


def chain_pair_env(ctx, lam, w, memo):
    """lam on a normal-form element: a zero plus each scaled pairing."""
    out = chain_zero(ctx)
    for alpha, poly in w.terms.items():
        for gamma, q in poly.terms.items():
            v = chain_pair_mono(ctx, lam, (gamma, alpha), memo)
            out = out + (v if q == 1 else v.map(lambda t: t * q))
    return out


def chain_pair_env_laurent(ctx, lam, W, memo):
    """lam on a Laurent series: the sum of the shifted pairings of its
    nonzero coefficients, or a zero up to W's top when there are none."""
    out = None
    for q in range(W.val, W.top + 1):
        w = W.coeff(q)
        if w.is_zero():
            continue
        piece = chain_pair_env(ctx, lam, w, memo).shift(q)
        out = piece if out is None else out + piece
    if out is None:
        return chain_zero(ctx, W.top)
    return out


# -- the unmemoised oracle for jet_product_eval -------------------------------------


def unmemoised_images(ctx, lam, arg, memo):
    """The body before the memo, up to the pairing with mu: for every lift
    term on whose paired leg lam does not vanish, (k, c, W) with W lam's
    pairing mapped and multiplied by the other leg afresh.  The chain
    oracles above pair, keeping their pairings in ``memo``."""
    spec = ctx.spec
    left = lam.flavor == LEFT
    mapper = ctx.dfa.target if left else ctx.dfa.source
    out = []
    for k, Tk in enumerate(ctx.dfa.lift_mono(arg).coeffs):
        for (w1, w2), c in Tk.terms.items():
            paired, other = (w2, w1) if left else (w1, w2)
            v = chain_pair_mono(ctx, lam, paired, memo)
            if v.is_zero():
                continue
            W = jets._apply_series_map(ctx, v, mapper)
            other = EnvElement.monomial(spec.nvars, spec.rank, other[1],
                                        CPoly.monomial(spec.nvars, other[0]))
            out.append((k, c, W.map(lambda t: pbw_mul(spec, t, other))))
    return out


def unmemoised_sum(ctx, mu, images, memo):
    """sum c h^k mu(W) over the images, as a chain of additions."""
    out = None
    for k, c, W in images:
        piece = chain_pair_env_laurent(ctx, mu, W, memo).shift(k).map(
            lambda t: t * c)
        out = piece if out is None else out + piece
    return out if out is not None else chain_zero(ctx)


def window(v):
    return v.val, v.top, v.coeffs


def rows_support(ctx, rows, flavor):
    """``jets._support`` of the monomials of rows (q, {alpha: {gamma: c}})."""
    return jets._support(ctx, ((gamma, alpha) for _, row in rows
                               for alpha, terms in row.items()
                               for gamma in terms), flavor)


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_jet_product_eval_matches_unmemoised(make, flavor):
    dfa = make()
    spec = dfa.spec
    ctx = JetContext(dfa, flavor, 2)
    gens = [xi_functional(ctx, i) for i in range(spec.rank)]
    x1 = coordinate_functional(ctx, 0)
    # h^-1-rescaled and scaled functionals put the values at negative
    # valuation and make the windows differ
    funcs = gens + [x1, gens[0].shift(-1), gens[-1].add(x1).scale(3),
                    jet_product(ctx, gens[0], gens[-1])]
    args = [((0,) * spec.nvars, beta) for beta in pbw_indices(spec.rank, 2)]
    args.append(((1,) + (0,) * (spec.nvars - 1), (0,) * (spec.rank - 1) + (1,)))
    # the oracle keeps its pairings apart from the functionals' own memos;
    # its images depend on lam only, so each is multiplied out once per lam
    chain_memo = {}
    for lam in funcs:
        images = [unmemoised_images(ctx, lam, a, chain_memo) for a in args]
        built = None
        for mu in funcs:
            want = [window(unmemoised_sum(ctx, mu, im, chain_memo))
                    for im in images]
            memo = {}
            for _ in range(2):
                # the second pass reads every paired factor from the memo
                got = [window(jet_product_eval(ctx, lam, mu, a, memo))
                       for a in args]
                assert got == want
            # lam's product rows and their supports are built while it
            # meets the first mu; every later mu reads those same rows and
            # supports and builds none
            assert all(lift for _, lift, _ in lam._images)
            rows = {(ckey, other): hit
                    for ckey, (_, per) in lam._images.items()
                    for other, hit in per.items()}
            if built is None:
                built = rows
                for r, support in built.values():
                    assert support == rows_support(ctx, r, flavor)
            assert rows.keys() == built.keys()
            assert all(r is built[k][0] and support is built[k][1]
                       for k, (r, support) in rows.items())
            # a mapped image exactly under the legs lam pairs with nonzero,
            # and mu's factors exactly under those, one per row
            for paired, factors in memo.items():
                W, per = lam._images[ctx.dfa, True, paired]
                if chain_pair_mono(ctx, lam, paired, chain_memo).is_zero():
                    assert W is None and factors is None and not per
                else:
                    assert W is not None and factors
                    assert set(factors) == set(per)
    # the grouped lift holds each term of the lift exactly once, under the
    # leg the dual pairs on
    leg = 1 if flavor == LEFT else 0
    for a in args:
        want = Counter((k, key, c) for k, T in enumerate(dfa.lift_mono(a).coeffs)
                       for key, c in T.terms.items())
        groups = dfa.lift_legs(a, leg)
        got = Counter((k, (other, w) if leg else (w, other), c)
                      for w, terms in groups for k, other, c in terms)
        assert got == want and set(got.values()) == {1}
        assert len({w for w, _ in groups}) == len(groups)


# -- the in-place pairing sums against their chains ----------------------------------


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


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pairing_sums_match_chains(make, flavor):
    dfa = make()
    spec = dfa.spec
    ctx = JetContext(dfa, flavor, 2)
    funcs = edge_functionals(ctx)
    elems = edge_elements(spec)
    series = edge_series(ctx, elems)
    keys = [(g, a) for g in pbw_indices(spec.nvars, 2)
            for a in pbw_indices(spec.rank, 2)]
    memo = {}
    for lam in funcs:
        for key in keys:
            assert window(jets._pair_mono(ctx, lam, key)) \
                == window(chain_pair_mono(ctx, lam, key, memo))
        for w in elems:
            assert window(jets._pair_env(ctx, lam, w)) \
                == window(chain_pair_env(ctx, lam, w, memo))
        for W in series:
            assert window(jets._pair_env_laurent(ctx, lam, W)) \
                == window(chain_pair_env_laurent(ctx, lam, W, memo))
    # xi_0 - xi_last on e_0 + e_last: two pieces that cancel to zero
    val, top, coeffs = window(jets._pair_env(ctx, funcs[1], elems[1]))
    assert (val, top) == (0, ctx.order)
    assert all(c.is_zero() for c in coeffs)
    # products of values at valuations -1 and 0, with different tops
    values = [v for lam in funcs[1:] for v in lam.table.values()]
    values += [v.shift(1) for v in values[:2]]
    for x in values:
        for y in values:
            assert window(laurent_mul(x, y, dfa.star_coeffs, ctx.order)) \
                == window(chain_laurent_mul(x, y, dfa.star_coeffs, ctx.order))
    empty = HLaurent.zero_upto(-1, ctx.zero_poly())
    for mul in (laurent_mul, chain_laurent_mul):
        with pytest.raises(ConfigError):
            mul(empty, values[0], dfa.star_coeffs, ctx.order)
    # the dual product's sum of c h^k P
    args = [((0,) * spec.nvars, beta) for beta in pbw_indices(spec.rank, 1)]
    args.append(((1,) + (0,) * (spec.nvars - 1), (0,) * (spec.rank - 1) + (1,)))
    for lam in funcs:
        images = [unmemoised_images(ctx, lam, a, memo) for a in args]
        for mu in funcs:
            factors = {}
            assert [window(jet_product_eval(ctx, lam, mu, a, factors))
                    for a in args] \
                == [window(unmemoised_sum(ctx, mu, im, memo)) for im in images]


# -- the shortcuts of _pair_rows against the plain loop ------------------------------


@pytest.mark.parametrize("make", [axb_exp_dfa, bracketed_exp_dfa,
                                  polynomial_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_rows_match_the_plain_loop(make, flavor):
    """``_pair_rows`` skips pairings that are the shared zero and returns a
    lone unit term's memoised pairing, shifted, when its top is at most N;
    both give the value and window of the loop that adds every pairing
    (``oracles.pair_rows_loop``).  The rows: one term with c = 1 at q = 0,
    q > 0 and q < 0, between empty rows, one with c != 1, and seeded row
    sets that mix the shared zero with nonzero pairings."""
    dfa = make()
    spec = dfa.spec
    ctx = JetContext(dfa, flavor, 2)
    n, zero = ctx.order, ctx.zero_value()
    # xi_0 h pairs to windows topped at N + 1, where the shortcut must not
    # apply: the sum's start cuts the top to N + q
    funcs = edge_functionals(ctx) + [xi_functional(ctx, 0).shift(1)]
    keys = [(g, a) for g in pbw_indices(spec.nvars, 1)
            for a in pbw_indices(spec.rank, 2)]
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
            for g, a in rng.sample(keys, rng.randint(0, 3)):
                row.setdefault(a, {})[g] = rng.choice([1, 2, Fraction(-3, 2)])
            rows.append((q, row))
        cases.append(rows)
    cases.append([])
    mixed = False
    for lam in funcs:
        pairing = {key: jets._pair_mono(ctx, lam, key) for key in keys}
        for rows in cases:
            assert window(jets._pair_rows(ctx, lam, rows, n + 2)) \
                == window(pair_rows_loop(ctx, lam, rows, n + 2))
            found = [pairing[g, a] for _, row in rows
                     for a, terms in row.items() for g in terms]
            mixed |= any(v is zero for v in found) \
                and any(not v.is_zero() for v in found)
        for key, v in pairing.items():
            # a pairing that is the empty window up to N is the shared zero
            if not v.coeffs and v.top == n:
                assert v is zero
            g, a = key
            got = jets._pair_rows(ctx, lam, [(0, {a: {g: 1}})], n)
            if v.top <= n:
                assert got is v
                assert window(jets._pair_rows(ctx, lam, [(2, {a: {g: 1}})],
                                              n)) == window(v.shift(2))
            else:
                assert got.top == n
    # the empty functional pairs to the shared zero on every key
    assert all(jets._pair_mono(ctx, funcs[0], key) is zero for key in keys)
    assert mixed


# -- the table test of _pair_mono against the whole decomposition ---------------------


def polynomial_brackets(spec):
    """Whether some structure function [e_i, e_j] has a non-constant
    coefficient."""
    return any(any(m) for i, j in itertools.combinations(range(spec.rank), 2)
               for c in spec.bracket_basis(i, j) for m in c.terms)


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_mono_matches_the_decomposed_pairing(flavor):
    """``_pair_mono`` returns the shared zero without decomposing x^gamma
    e^alpha when no leg-table term of e^beta e^alpha (e^beta over the
    decomposition of x^gamma) is impure or has its index in the
    functional's table (``jets._misses`` of its ``jets._support``, a
    membership test on the deformation's pairing support, against the scan
    of the leg table ``oracles.scan_misses_table``); its value, window and
    identity with the shared zero are those of the pairing through the
    whole decomposition (``oracles.decomposed_pair_mono``).  On the five
    fixtures, on ``central_exp_dfa``, whose remainders reach indices that
    no pure term has, and on the seeded structures of
    ``oracles.random_valid_specs`` of two seeds that have a base variable
    (a structure without one has no x^gamma to decompose; seed 13 draws a
    polynomial structure function), with floors on the keys the test
    decides and on the impure keys that fall back."""
    side = "source" if flavor == LEFT else "target"
    seeded = [d for d in (random_dfa(i, seed) for seed in (11, 13)
                          for i in range(6)) if d.spec.nvars]
    assert len(seeded) >= 6
    polynomial = [polynomial_exp_dfa(), central_exp_dfa()]
    totals = Counter()
    for dfa in [axb_exp_dfa(), orders_dfa(), bracketed_exp_dfa(),
                rational_exp_dfa()] + polynomial + seeded:
        spec = dfa.spec
        ctx = JetContext(dfa, flavor, 2)
        zero = ctx.zero_value()
        # the dual of each PBW monomial of degree <= 2 meets every index a
        # remainder can reach there
        one = HLaurent.const(CPoly.one(spec.nvars), ctx.order, ctx.zero_poly())
        funcs = edge_functionals(ctx) + [
            JetElement(flavor, {delta: one})
            for delta in pbw_indices(spec.rank, 2)] + [
            coordinate_functional(ctx, j) for j in range(spec.nvars)]
        keys = [(g, a) for g in pbw_indices(spec.nvars, 2)[1:]
                for a in pbw_indices(spec.rank, 2)]
        counts = Counter()
        for lam in funcs:
            for key in keys:
                want = decomposed_pair_mono(ctx, lam, key)
                misses = jets._misses(lam, jets._support(ctx, (key,), flavor))
                # the support is read from the deformation's memo the
                # second time
                assert misses \
                    == jets._misses(lam, jets._support(ctx, (key,), flavor)) \
                    == scan_misses_table(ctx, lam, *key, side)
                if misses:
                    counts["decided"] += 1
                elif impure_leg_product(dfa, key, side):
                    counts["impure"] += 1
                for _ in range(2):
                    # the second call reads lam's memo
                    got = jets._pair_mono(ctx, lam, key)
                    assert window(got) == window(want)
                    assert (got is zero) == (want is zero)
        assert counts["decided"] > 0
        if not polynomial_brackets(spec):
            # only a polynomial structure function makes an impure term
            assert counts["impure"] == 0
        if dfa in polynomial:
            assert counts["impure"] > 0
        totals.update(counts)
    assert totals["decided"] >= 1000 and totals["impure"] >= 80


# -- the unskipped oracle for tensor_functional_from_pair -----------------------------


def unskipped_tensor_functional_from_pair(ctx, lam, mu, degree):
    """The body that maps and multiplies every entry, vanishing first
    pairings included."""
    spec = ctx.spec
    out = {}
    for b1 in pbw_indices(spec.rank, degree):
        for b2 in pbw_indices(spec.rank, degree - sum(b1)):
            m1 = EnvElement.monomial(spec.nvars, spec.rank, b1)
            m2 = EnvElement.monomial(spec.nvars, spec.rank, b2)
            if ctx.flavor == LEFT:
                v = jets._pair_env(ctx, lam, m2)
                W = jets._apply_series_map(ctx, v, ctx.dfa.source)
                W = W.map(lambda t: pbw_mul(spec, m1, t))
                val = jets._pair_env_laurent(ctx, mu, W)
            else:
                v = jets._pair_env(ctx, mu, m1)
                W = jets._apply_series_map(ctx, v, ctx.dfa.target)
                W = W.map(lambda t: pbw_mul(spec, m2, t))
                val = jets._pair_env_laurent(ctx, lam, W)
            if not val.is_zero():
                out[(b1, b2)] = val
    return out


# the jet degree of each fixture's tables
UNSKIPPED_DEGREES = {axb_exp_dfa: 2, bracketed_exp_dfa: 2,
                     rational_exp_dfa: 3, polynomial_exp_dfa: 3}


@pytest.mark.parametrize("make", list(UNSKIPPED_DEGREES))
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_tensor_functional_from_pair_matches_unskipped(make, flavor):
    dfa = make()
    spec = dfa.spec
    degree = UNSKIPPED_DEGREES[make]
    ctx = JetContext(dfa, flavor, degree)
    gens = [xi_functional(ctx, i) for i in range(spec.rank)]
    x1 = coordinate_functional(ctx, 0)
    funcs = gens + [x1, gens[0].shift(-1), gens[-1].add(x1).scale(3),
                    jet_product(ctx, gens[0], gens[-1])]
    skipped = 0
    for lam in funcs:
        for mu in funcs:
            want = unskipped_tensor_functional_from_pair(ctx, lam, mu,
                                                         degree)
            got = jets.tensor_functional_from_pair(ctx, lam, mu, degree)
            assert {k: window(v) for k, v in got.items()} \
                == {k: window(v) for k, v in want.items()}
            first = lam if flavor == LEFT else mu
            skipped += sum(
                jets._pair_mono(ctx, first, ((0,) * spec.nvars, beta))
                .is_zero() for beta in pbw_indices(spec.rank, degree))
    # the skip is taken
    assert skipped


# -- products paired without being built ---------------------------------------------


def built_product_series(spec, W, key, mono_right):
    """W . m or m . W for the basis monomial key m = (gamma, alpha), built
    order by order with ``pbw_mul``."""
    gamma, alpha = key
    mono = EnvElement.monomial(spec.nvars, spec.rank, alpha,
                               CPoly.monomial(spec.nvars, gamma))
    if mono_right:
        return W.map(lambda t: pbw_mul(spec, t, mono))
    return W.map(lambda t: pbw_mul(spec, mono, t))


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_product_matches_built_product(make, flavor):
    dfa = make()
    spec = dfa.spec
    p, m = spec.nvars, spec.rank
    ctx = JetContext(dfa, flavor, 2)
    funcs = edge_functionals(ctx)
    series = edge_series(ctx, edge_elements(spec))
    # the unit, the first and last generators and x1 e_0 (a coordinate the
    # table entry is shifted by when the monomial is on the left)
    monos = [((0,) * p, (0,) * m), ((0,) * p, _bump((0,) * m, 0)),
             ((0,) * p, _bump((0,) * m, m - 1)),
             (_bump((0,) * p, 0), _bump((0,) * m, 0))]
    memo = {}
    for key in monos:
        for mono_right in (True, False):
            built = [built_product_series(spec, W, key, mono_right)
                     for W in series]
            for lam in funcs:
                for W, P in zip(series, built):
                    assert window(jets._pair_product(ctx, lam, W, key,
                                                     mono_right)) \
                        == window(chain_pair_env_laurent(ctx, lam, P, memo))


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_product_merges_cancelling_terms(flavor):
    """On the bracketed structure anchor(e_0) x1 = x1, so
    e_0 . (x1 - x1 e_0) = x1 e_0 + x1 - x1 e_0^2 - x1 e_0: the two basis
    terms of w land on x1 e_0 with cancelling coefficients.  lam pairs
    there with a lower top than on the surviving keys, so pairing the
    unmerged terms would lower the window's top."""
    dfa = bracketed_exp_dfa()
    spec = dfa.spec
    p, m = spec.nvars, spec.rank
    n = dfa.order
    ctx = JetContext(dfa, flavor, 2)
    x1, e0 = _bump((0,) * p, 0), _bump((0,) * m, 0)
    zero = EnvElement.zero(p, m)
    w = EnvElement(p, m, {(0,) * m: CPoly.var(p, 0), e0: -CPoly.var(p, 0)})
    W = HLaurent(0, n, [w] + [zero] * n, zero)
    mono = ((0,) * p, e0)
    gens = [xi_functional(ctx, i) for i in range(m)]
    lam = gens[0].shift(-1).add(gens[-1])
    unmerged = [(t, q * r) for alpha, poly in w.terms.items()
                for gamma, q in poly.terms.items()
                for t, r in nested_leg_product(spec, mono, (gamma, alpha))]
    cancelled = (x1, e0)
    assert [c for t, c in unmerged if t == cancelled] == [1, -1]
    assert cancelled not in flat(_mul_mono_into({}, spec, w, mono, 1, False))
    got = jets._pair_product(ctx, lam, W, mono, False)
    built = built_product_series(spec, W, mono, False)
    assert window(got) == window(chain_pair_env_laurent(ctx, lam, built, {}))
    assert got.top == n
    assert jets._pair_mono(ctx, lam, cancelled).top < got.top


# -- the one loop of envelope products against the loops it replaced ---------------


def loop_pbw_mul(spec, u, v):
    """``pbw_mul``'s own loop before it summed ``_mul_mono_into``: each
    monomial of u's coefficients times the table entry of e^alpha and a
    basis term of v, rows filtered at the end."""
    zeros = (0,) * spec.nvars
    lefts = [(leg_id((zeros, alpha)), a.terms) for alpha, a in u.terms.items()]
    rows = {}
    for beta, b in v.terms.items():
        for gamma, q in b.terms.items():
            ib = leg_id((gamma, beta))
            for ia, aterms in lefts:
                entry = leg_product(spec, ia, ib)
                for mu, p in aterms.items():
                    for i, r in entry:
                        g, d = LEGS[i]
                        g = tuple(map(add, g, mu))
                        _bump_term(rows.setdefault(d, {}), g, p * q * r)
    return EnvElement(spec.nvars, spec.rank, {
        d: CPoly(spec.nvars, row) for d, row in rows.items() if row})


def flat_product_row(spec, w, m, mono_right):
    """w . m (``mono_right``) or m . w as the one flat {(gamma, alpha): q}
    that the jet pairings read before the nested rows."""
    zeros = (0,) * spec.nvars
    row = {}
    for alpha, poly in w.terms.items():
        for gamma, q in poly.terms.items():
            if mono_right:
                ia, ib, shift = leg_id((zeros, alpha)), leg_id(m), gamma
            else:
                ia, ib = leg_id((zeros, m[1])), leg_id((gamma, alpha))
                shift = m[0]
            for i, r in leg_product(spec, ia, ib):
                g, a = LEGS[i]
                _bump_term(row, (tuple(map(add, g, shift)), a), q * r)
    return row


def inlined_decompose_product(spec, out, w, alpha, c):
    """out -= c w e^alpha as ``basis_decompose`` inlined it: every basis
    term x^g1 e^a1 of w by its own table entry with e^alpha, a row it
    empties deleted."""
    mono = leg_id(((0,) * spec.nvars, alpha))
    for a1, p1 in w.terms.items():
        for g1, q1 in p1.terms.items():
            for i2, q2 in leg_product(spec, leg_id((g1, a1)), mono):
                g2, a2 = LEGS[i2]
                row = out.setdefault(a2, {})
                _bump_term(row, g2, -c * q1 * q2)
                if not row:
                    del out[a2]
    return out


def flat(rows):
    return {(g, a): q for a, row in rows.items() for g, q in row.items()}


def env_rows(w):
    return {alpha: dict(p.terms) for alpha, p in w.terms.items()}


def assert_clean(rows):
    """No empty row and no zero entry."""
    assert all(rows.values())
    assert all(q for row in rows.values() for q in row.values())


def merged(start, terms, c):
    out = dict(start)
    for key, q in terms.items():
        _bump_term(out, key, c * q)
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


@pytest.mark.parametrize("make", STRUCTURES + [rational_structure,
                                               polynomial_structure])
def test_mono_loop_matches_replaced_loops(make):
    spec = make()
    p, m = spec.nvars, spec.rank
    elems, keys = mono_loop_inputs(spec)
    for w in elems:
        for key in keys:
            mono = EnvElement.monomial(p, m, key[1], CPoly.monomial(p, key[0]))
            assert pbw_mul(spec, w, mono) == loop_pbw_mul(spec, w, mono)
            assert pbw_mul(spec, mono, w) == loop_pbw_mul(spec, mono, w)
            for right in (True, False):
                want = flat_product_row(spec, w, key, right)
                for c in (1, Fraction(-3, 2)):
                    got = _mul_mono_into({}, spec, w, key, c, right)
                    assert_clean(got)
                    assert flat(got) == merged({}, want, c)
                    # into non-empty rows, some of which the product cancels
                    for start in elems:
                        got = _mul_mono_into(env_rows(start), spec, w, key,
                                             c, right)
                        assert_clean(got)
                        assert flat(got) == merged(flat(env_rows(start)),
                                                   want, c)
                        if right and not any(key[0]):
                            assert _mul_mono_into(
                                env_rows(start), spec, w, key, -c) \
                                == inlined_decompose_product(
                                    spec, env_rows(start), w, key[1], c)
    zero = EnvElement.zero(p, m)
    a = HSeries(2, elems[:3], zero)
    b = HSeries(2, [elems[3], zero, elems[-1]], zero)
    for x, y in ((a, b), (b, a), (a, a)):
        assert defelem_mul(spec, x, y) \
            == hseries_mul(x, y, lambda u, v: pbw_mul(spec, u, v))


def test_mono_loop_drops_a_row_it_empties():
    """On the bracketed structure anchor(e_0) x1 = x1, so e_0 . (x1 - x1 e_0)
    = x1 e_0 + x1 - x1 e_0^2 - x1 e_0: the row of e_0 cancels to empty and
    is dropped, on its own and accumulated with c != 1."""
    spec = bracketed_structure()
    p, m = spec.nvars, spec.rank
    x1, e0, e00 = _bump((0,) * p, 0), _bump((0,) * m, 0), _bump((0,) * m, 0, 2)
    w = EnvElement(p, m, {(0,) * m: CPoly.var(p, 0), e0: -CPoly.var(p, 0)})
    key = ((0,) * p, e0)
    assert _mul_mono_into({}, spec, w, key, 1, False) \
        == {(0,) * m: {x1: 1}, e00: {x1: -1}}
    start = {(0,) * m: {x1: 3}, e00: {x1: 1}}
    assert _mul_mono_into(start, spec, w, key, -3, False) == {e00: {x1: 4}}


# -- the built-product bodies of the coproduct functional and the dual
# -- source/target -------------------------------------------------------------------


def built_coproduct_functional(ctx, lam, degree):
    """lam(e^b1 e^b2) (left) or lam(e^b2 e^b1) (right), the product built
    with ``pbw_mul`` and paired as a plain element."""
    spec = ctx.spec
    out = {}
    for b1 in pbw_indices(spec.rank, degree):
        for b2 in pbw_indices(spec.rank, degree - sum(b1)):
            m1 = EnvElement.monomial(spec.nvars, spec.rank, b1)
            m2 = EnvElement.monomial(spec.nvars, spec.rank, b2)
            prod = pbw_mul(spec, m1, m2) if ctx.flavor == LEFT \
                else pbw_mul(spec, m2, m1)
            v = jets._pair_env(ctx, lam, prod)
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


def windows(table):
    return {k: window(v) for k, v in table.items()}


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_coproduct_and_source_target_match_built_products(make, flavor):
    dfa = make()
    spec = dfa.spec
    p = spec.nvars
    ctx = JetContext(dfa, flavor, 2)
    for lam in edge_functionals(ctx):
        assert windows(jets.jet_coproduct_functional(ctx, lam, 2)) \
            == windows(built_coproduct_functional(ctx, lam, 2))
    # zero, a coordinate, a constant and a mixed polynomial with a Fraction
    x1, xl = CPoly.var(p, 0), CPoly.var(p, p - 1)
    for a in (CPoly.zero(p), x1, CPoly.const(p, 2),
              x1 * xl - CPoly.const(p, Fraction(2, 3)) + x1 * x1):
        got = jets.jet_source_target(ctx, a, 2)
        want = built_source_target(ctx, a, 2)
        assert [windows(j.table) for j in got] == [windows(t) for t in want]


@pytest.mark.parametrize("make", [polynomial_exp_dfa, central_exp_dfa] + [
    pytest.param(lambda seed=seed: random_dfa(3, seed), id="poly%d" % seed)
    for seed in (8, 9, 13)])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_source_target_tabulate_image_times_monomial_at_the_unit(make,
                                                                  flavor):
    """``jet_source_target`` reads the counit of image . e^beta only at
    beta = 0: on structures with polynomial structure functions the
    two-sided loop that builds every product finds no other key there,
    and it finds the counits of e^beta . image that ``jet_source_target``
    reads from the action table."""
    dfa = make()
    spec = dfa.spec
    assert polynomial_brackets(spec)
    p = spec.nvars
    ctx = JetContext(dfa, flavor, 3)
    unit = (0,) * spec.rank
    # image . e^beta is the source table of the left dual and the target
    # table of the right one
    right = 0 if flavor == LEFT else 1
    x1, xl = CPoly.var(p, 0), CPoly.var(p, p - 1)
    for a in (CPoly.zero(p), x1, CPoly.const(p, 2), x1 * x1 * xl,
              x1 * xl - CPoly.const(p, Fraction(2, 3)) + x1 * x1):
        got = jets.jet_source_target(ctx, a, 3)
        want = built_source_target(ctx, a, 3)
        assert [windows(j.table) for j in got] == [windows(t) for t in want]
        assert set(want[right]) <= {unit}



# -- tables built once per structure, context or functional ----------------------


def cocycle_sides(dfa):
    """The two sides (Delta (x) id)(F) F_12 and (id (x) Delta)(F) F_23 of
    the cocycle identity, order by order, as ``twistor_validate`` builds
    them."""
    spec = dfa.spec
    F = dfa.twistor.series
    lhs = tensor_series_mul(spec, F.map(
        lambda t: tensor_coproduct_leg(spec, t, 0)), F.map(
        lambda t: t.embed(3, 0)))
    rhs = tensor_series_mul(spec, F.map(
        lambda t: tensor_coproduct_leg(spec, t, 1)), F.map(
        lambda t: t.embed(3, 1)))
    return list(zip(lhs.coeffs, rhs.coeffs))


def doubled(T):
    """T with its numerators and its denominator doubled: the same value
    over another denominator."""
    return _tensor(T.nvars, T.rank, T.legs,
                   {k: 2 * c for k, c in T.num.items()}, 2 * T.den)


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa])
def test_reduce_kernels_match_the_loop(make):
    """``tensor_reduce``'s fixed 2- and 3-leg loops against
    ``oracles.tensor_reduce_loop``: the same numerators in the same order
    over the same denominator, on 2- and 3-leg inputs and on the two sides
    of the cocycle identity, each reduced twice (the second time every
    shift is already interned).  ``same_class`` (one signed reduction over
    the common denominator) against comparing the loop's two reductions,
    on pairs over different denominators.  A 4-leg tensor is refused by
    both, as no command reduces one."""
    dfa = make()
    spec = dfa.spec
    two, three = integer_layer_inputs(spec)
    sides = cocycle_sides(dfa)
    three = three + [t for pair in sides for t in pair]
    for T in wide_tensors(spec, 4):
        with pytest.raises(ConfigError, match="2 or 3 legs"):
            tensor_reduce(spec, T)
        with pytest.raises(ConfigError, match="2 or 3 legs"):
            same_class(spec, T, T)
    for T in two + three:
        want = tensor_reduce_loop(spec, T)
        for _ in range(2):
            got = tensor_reduce(spec, T)
            assert list(got.num.items()) == list(want.num.items())
            assert got.den == want.den and got.legs == T.legs
    # a 3-leg key whose middle leg carries a gamma, alone and beside one on
    # the first leg
    middle = [(GAMMA[a], GAMMA[b]) for T in three for a, b, _ in T.num]
    assert any(gb is not None and ga is None for ga, gb in middle)
    assert any(gb is not None and ga is not None for ga, gb in middle)
    same = 0
    for group in (two, three):
        for s in group:
            for t in group[:4] + [doubled(s), doubled(s) - s.scale(2)]:
                want = tensor_reduce_loop(spec, s) \
                    == tensor_reduce_loop(spec, t)
                assert same_class(spec, s, t) == want
                assert same_class(spec, t, s) == want
                same += want and s.den != t.den
    for lhs, rhs in sides:
        assert same_class(spec, lhs, rhs) \
            == (tensor_reduce_loop(spec, lhs) == tensor_reduce_loop(spec, rhs))
    # equal classes over different denominators are met
    assert same > 0


JET_TABLE_CASES = [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                   rational_exp_dfa, polynomial_exp_dfa] + [
    pytest.param(lambda i=i, seed=seed: random_dfa(i, seed),
                 id="seed%d-%d" % (seed, i))
    for i, seed in ((0, 11), (3, 13), (5, 11))]


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


def rank4_dfa():
    espec = load_spec(RANK4_SPEC)
    spec = espec.build_structure()
    return DeformedEnvAlgebroid(spec, espec.build_twistor(spec, 2),
                                validate=False)


@pytest.mark.parametrize("make", JET_TABLE_CASES + [rank4_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_jet_product_matches_the_gather(make, flavor):
    """``jet_product`` (transpose, mark, gather) against the gather that
    evaluates every index (``oracles.gathered_jet_product``): the same
    keys in the same order, the same values and windows (val, top).  One
    context takes degrees 1, 2, 3, the associativity reach of
    ``jet_axiom_suite`` and 2 again, so each degree reads its own
    transpose, after a lower and after a higher one.  The functionals
    include the edge cases of the pairing sums (rescaled values whose
    zero factors carry windows other than the truncation order)."""
    dfa = make()
    spec = dfa.spec
    zeros = (0,) * spec.nvars
    ctx = JetContext(dfa, flavor, 2)
    reach = max([2] + [
        sum(alpha) for beta in pbw_indices(spec.rank, 2)
        for T in dfa.lift_mono((zeros, beta)).coeffs
        for key in T.terms for _, alpha in key])
    funcs = edge_functionals(ctx) + [
        unit_functional(ctx), coordinate_functional(ctx, 0),
        xi_functional(ctx, 1)]
    # the oracle's images and rows depend on lam alone, as the engine's do
    images = {id(lam): {} for lam in funcs}
    nonzero = windowed = 0
    for degree in (1, 2, 3, reach, 2):
        # at the reach, only the edge cases with values: the index count
        # grows fastest there
        some = funcs[1:5] if degree == reach else funcs
        for lam in some:
            for mu in some:
                got = jet_product(ctx, lam, mu, degree)
                want = gathered_jet_product(ctx, lam, mu, degree,
                                            images[id(lam)])
                assert [(k, window(v)) for k, v in got.table.items()] \
                    == [(k, window(v)) for k, v in want.table.items()]
                nonzero += bool(got.table)
                windowed += any((v.val, v.top) != (0, ctx.order)
                                for v in got.table.values())
    assert nonzero and windowed
    assert set(ctx._transposes) == {1, 2, 3, reach}


def impure_entry(entry):
    """Whether a product-table entry has a term x^gamma e^alpha, gamma != 0."""
    return any(GAMMA[i] is not None for i, _ in entry)


def entry_fallbacks(ctx, lam, table):
    """The entries of lam's coproduct ``table`` that have an impure term
    and pure indices that miss lam's table: a skip read off those indices
    alone would drop their nonzero value.  Each is kept either by the
    pairing supports of its impure terms, which meet lam's table, or by
    having no support (``jets._support``)."""
    zeros = (0,) * ctx.spec.nvars
    out = 0
    for b1, b2 in table:
        la, lb = (b1, b2) if ctx.flavor == LEFT else (b2, b1)
        entry, _ = ctx._entries[(zeros, la), (zeros, lb)]
        pure = {LEGS[i][1] for i, _ in entry if GAMMA[i] is None}
        out += impure_entry(entry) and not pure & lam.table.keys()
    return out


@pytest.mark.parametrize("make", JET_TABLE_CASES)
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_context_and_functional_tables_match_loops(make, flavor):
    """The paths that read tables built once per context or functional
    against the loops that build on every call: the coproduct functional
    (entry rows on the context, ``oracles.coproduct_functional_loop``),
    the tensor functional of a pair (images and rows on the first
    functional, ``oracles.from_pair_loop``) and the dual source/target
    (``oracles.source_target_loop``).  Each path is called twice, so the
    second call reads the tables; value, window and table keys must
    agree.  On the structures with polynomial structure
    functions some entry rows are impure and their pairings fall back to
    the pairing of every term."""
    dfa = make()
    spec = dfa.spec
    ctx = JetContext(dfa, flavor, 2)
    one = HLaurent.const(CPoly.one(spec.nvars), ctx.order, ctx.zero_poly())
    funcs = edge_functionals(ctx) + [coordinate_functional(ctx, 0)]
    duals = [JetElement(flavor, {delta: one})
             for delta in pbw_indices(spec.rank, 2)]
    fallbacks = 0
    for lam in funcs + duals:
        want = windows(coproduct_functional_loop(ctx, lam, 2))
        for _ in range(2):
            got = jet_coproduct_functional(ctx, lam, 2)
            assert windows(got) == want
        fallbacks += entry_fallbacks(ctx, lam, got)
    for lam in funcs[1:]:
        for mu in funcs[1:]:
            want = windows(from_pair_loop(ctx, lam, mu, 2))
            for _ in range(2):
                assert windows(tensor_functional_from_pair(ctx, lam, mu, 2)) \
                    == want
    p = spec.nvars
    x1, xl = CPoly.var(p, 0), CPoly.var(p, p - 1)
    # the degree is part of the key: a table at degree 1 is not one at 2
    for a in (CPoly.zero(p), x1, x1 * xl - CPoly.const(p, Fraction(2, 3))):
        for degree in (1, 2):
            got = jet_source_target(ctx, a, degree)
            assert jet_source_target(ctx, a, degree) is got
            assert [windows(j.table) for j in got] == [
                windows(j.table) for j in source_target_loop(ctx, a, degree)]
    impure = sum(impure_entry(entry) for entry, _ in ctx._entries.values())
    if polynomial_brackets(spec):
        assert impure and fallbacks >= 3
    else:
        assert impure == fallbacks == 0


def impure_rows(rows):
    """Whether rows (q, {alpha: {gamma: c}}) hold a term with gamma != 0."""
    return any(any(gamma) for _, row in rows for terms in row.values()
               for gamma in terms)


def test_impure_entries_and_rows_skip_by_pairing_support():
    """On the structures with polynomial structure functions (the
    polynomial and central fixtures and the seeded structures 13-3 and
    17-3 of ``oracles.random_valid_specs``), both flavors, the coproduct
    functional skips some product-table entries that hold an impure term,
    and the tensor functional of a pair some product rows that hold one,
    by the pairing supports of those terms (``jets._support``, read by
    ``jets._misses``) and without a pairing; each result equals the loop
    that pairs every entry (``oracles.coproduct_functional_loop``,
    ``oracles.from_pair_loop``) in keys, values and windows.  Each
    structure but the polynomial fixture takes both skips; there every
    impure entry and row holds a term whose own pairing support is None,
    so nothing is skipped by a support and every pairing is checked."""
    skips = Counter()
    for name, make in (("polynomial", polynomial_exp_dfa),
                       ("central", central_exp_dfa),
                       ("seed13-3", lambda: random_dfa(3, 13)),
                       ("seed17-3", lambda: random_dfa(3, 17))):
        dfa = make()
        spec = dfa.spec
        assert polynomial_brackets(spec)
        for flavor in (LEFT, RIGHT):
            ctx = JetContext(dfa, flavor, 2)
            one = HLaurent.const(CPoly.one(spec.nvars), ctx.order,
                                 ctx.zero_poly())
            funcs = edge_functionals(ctx) + [coordinate_functional(ctx, 0)] \
                + [JetElement(flavor, {delta: one})
                   for delta in pbw_indices(spec.rank, 2)]
            for lam in funcs:
                assert windows(jet_coproduct_functional(ctx, lam, 2)) \
                    == windows(coproduct_functional_loop(ctx, lam, 2))
                # every entry of the context was read by lam
                skips["entries", name] += sum(
                    impure_entry(entry) and jets._misses(lam, support)
                    for entry, support in ctx._entries.values())
            for lam in funcs[1:]:
                for mu in funcs:
                    assert windows(tensor_functional_from_pair(
                        ctx, lam, mu, 2)) \
                        == windows(from_pair_loop(ctx, lam, mu, 2))
                    first, second = (lam, mu) if flavor == LEFT else (mu, lam)
                    # at one degree every call reads every row of first's
                    # images
                    skips["rows", name] += sum(
                        impure_rows(r) and jets._misses(second, support)
                        for (_, lift, _), (_, per) in first._images.items()
                        if not lift for r, support in per.values())
    for name in ("central", "seed13-3", "seed17-3"):
        assert skips["entries", name] and skips["rows", name], name


def test_tables_never_cross_contexts_or_deformations():
    """The left and right contexts on one deformation, and the exponential
    and trivial deformations of one structure (as the classical-limit
    check of ``jet_axiom_suite`` builds them), each read only their own
    pairing supports, entry rows, source/target tables and images.  One
    functional of each flavor is the first factor of a tensor functional
    in both contexts of its flavor, lam in a left one and mu in a right
    one, and its image there is mapped by s_F (left) and t_F (right),
    which differ on its coordinate value; it is also the first factor of
    dual products, whose images on the same keys are mapped by the other
    map and multiplied on the other side, so an image keyed without the
    deformation or without telling the two transposes apart is read
    wrongly.  The trivial context goes first, so a stale support (x^gamma
    alone) would skip pairings the twist needs."""
    dfa = axb_exp_dfa()
    spec = dfa.spec
    triv = DeformedEnvAlgebroid(spec, trivial_twistor(spec, dfa.order),
                                validate=False)
    contexts = [JetContext(d, flavor, 2) for d in (triv, dfa)
                for flavor in (LEFT, RIGHT)]
    shared = {flavor: coordinate_functional(JetContext(triv, flavor, 2), 0)
              .add(xi_functional(JetContext(triv, flavor, 2), 0))
              for flavor in (LEFT, RIGHT)}
    x1 = CPoly.var(spec.nvars, 0)
    keys = [(g, a) for g in pbw_indices(spec.nvars, 2)[1:]
            for a in pbw_indices(spec.rank, 2)]
    for ctx in contexts:
        first = other = shared[ctx.flavor]
        # the duals of the monomials of degree <= 2 as second factors, which
        # see the s_F and t_F images of the first apart
        one = HLaurent.const(CPoly.one(spec.nvars), ctx.order, ctx.zero_poly())
        seconds = [other] + [JetElement(ctx.flavor, {delta: one})
                             for delta in pbw_indices(spec.rank, 2)]
        for _ in range(2):
            for second in seconds:
                pair = (first, second) if ctx.flavor == LEFT \
                    else (second, first)
                got = tensor_functional_from_pair(ctx, *pair, 2)
                assert windows(got) == windows(from_pair_loop(ctx, *pair, 2))
                got = jet_product(ctx, first, second, 2)
                assert windows(got.table) == windows(
                    gathered_jet_product(ctx, first, second, 2).table)
            assert windows(jet_coproduct_functional(ctx, other, 2)) \
                == windows(coproduct_functional_loop(ctx, other, 2))
            assert [windows(j.table) for j in jet_source_target(ctx, x1, 2)] \
                == [windows(j.table) for j in source_target_loop(ctx, x1, 2)]
            side = "source" if ctx.flavor == LEFT else "target"
            for key in keys:
                assert jets._misses(other, jets._support(
                    ctx, (key,), ctx.flavor)) \
                    == scan_misses_table(ctx, other, *key, side)
                assert window(jets._pair_mono(ctx, other, key)) \
                    == window(decomposed_pair_mono(ctx, other, key))
    # every context filled its own tables
    for a, b in itertools.combinations(contexts, 2):
        assert a._entries is not b._entries and a._entries
        assert a._source_target is not b._source_target
    for f in (LEFT, RIGHT):
        assert {k[:2] for k in shared[f]._images} \
            == {(d, lift) for d in (triv, dfa) for lift in (True, False)}
    # on one key of one deformation, the two transposes' images of a
    # shared functional differ, and so do its s_F and t_F images as a
    # first factor; so do the supports of the two deformations
    images = {}
    for f in (LEFT, RIGHT):
        for (d, lift, key), (W, _) in shared[f]._images.items():
            if d is dfa and W is not None:
                images.setdefault(key, {})[f, lift] = window(W)
    assert any(im[f, True] != im[f, False] for im in images.values()
               for f in (LEFT, RIGHT) if (f, True) in im and (f, False) in im)
    assert any(im[LEFT, False] != im[RIGHT, False] for im in images.values()
               if (LEFT, False) in im and (RIGHT, False) in im)
    assert any(triv.pairing_support(key, "source")
               != dfa.pairing_support(key, "source") for key in keys)
