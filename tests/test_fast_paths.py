"""Fast paths against their real slow paths, through one registry.

Every fast path, its reference, input generator and comparison are an
entry of ``oracles.PARITY``; ``oracles.check`` drives entries on one
deformation.  ``test_fast_path_matches_reference`` drives every entry over
the seeded structures of ``oracles.generated_dfa`` (rank 4 and 5, up to
three base variables, validated exponential twistors).  The tests below
drive the same entries over the fixtures of ``oracles`` (axb and its
per-order twistor, the bracketed structure and its rational variant, the
polynomial and central structures, axb widened to rank 4, seeded
structures with twistors that need not be cocycles), keep the ids they
had before the registry, and add what only a fixture shows: floors on the
shapes their inputs reach, and the memos and tables a fast path fills.
"""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgroupoid import deform, drinfeld, jets, kernel, tensorspace
from qgroupoid.deform import (
    DeformedEnvAlgebroid, Twistor, deformed_axiom_suite, exp_twistor,
    reduce_series, trivial_twistor, twisted_coproduct, twistor_validate,
)
from qgroupoid.envelope import (
    GAMMA, LEGS, PURE, EnvElement, _mul_mono_into, leg_id, leg_product,
    monomial_action, pbw_mul,
)
from qgroupoid.errors import ConfigError
from qgroupoid.jets import (
    LEFT, RIGHT, JetContext, jet_coproduct_functional, pbw_indices,
    tensor_functional_from_pair,
)
from qgroupoid.lierinehart import LieRinehartSpec, lr_validate
from qgroupoid.scalars import CPoly, monomials_upto
from qgroupoid.series import HLaurent, HSeries, laurent_mul
from qgroupoid.specfile import load_spec_file
from qgroupoid.tensorspace import (
    TensorElement, same_class, tensor_mul, tensor_reduce, tensor_series_mul,
)

import oracles
from oracles import (
    GENERATED, PARITY, SPEC, _bump, arbitrary_exponent,
    assert_integral, axb_exp_dfa, axb_structure,
    bracketed_exp_dfa, bracketed_structure, built_coproduct_functional,
    built_product_series, built_source_target, carries, central_exp_dfa,
    chain_pair_env_laurent, chain_pair_mono, check, contexts, dual_functionals,
    edge_functionals, exp_dfa, flat_terms, generated_dfa,
    impure_leg_product, jet_product_degrees, leg_table_entries,
    nested_leg_product, orders_dfa, pair_basis, pairing_keys,
    polynomial_brackets,
    polynomial_exp_dfa, polynomial_structure, random_dfa, rank4_dfa,
    rational_exp_dfa, rational_structure, reduce_args, reduction_inputs,
    rows_cases, rows_functionals, sweep_base_map, tensor_groups,
    unskipped_tensor_functional_from_pair, window, windows,
)

STRUCTURES = [axb_structure, bracketed_structure]


@functools.lru_cache(maxsize=None)
def shared(make, *args):
    """One deformation per fixture (or generated case) for the tests that
    read its lifts, decompositions and s_F, t_F images, and the oracles'
    memos of them, and assert nothing about what it caches: these are
    built once for all of them, both dual flavors and every entry.  The
    tests that assert what a fast path fills build their own."""
    return make(*args)


# -- the registry over the generated structures -----------------------------------


@pytest.mark.parametrize("i", range(GENERATED), ids=lambda i: "gen%d" % i)
@pytest.mark.parametrize("entry", PARITY, ids=lambda e: e[0])
def test_fast_path_matches_reference(entry, i):
    check(shared(generated_dfa, i), entry[0])


def test_generated_cases_reach_rank_variables_and_twists():
    """The generated inputs include a structure of rank >= 4, one with
    three base variables and at least three whose exponential twistor
    ``twistor_validate`` accepted, so the generator cannot fall back to
    the trivial twistor unnoticed; every one is a valid structure."""
    dfas = [generated_dfa(i) for i in range(GENERATED)]
    assert all(lr_validate(d.spec).ok() for d in dfas)
    assert max(d.spec.rank for d in dfas) >= 4
    assert max(d.spec.nvars for d in dfas) == 3
    assert all(d.order <= 3 for d in dfas)
    twisted = [d for d in dfas if d.twistor.exponent is not None]
    assert len(twisted) >= 3
    assert all(twistor_validate(d).ok() for d in twisted)


# -- products, actions and the product table ----------------------------------------


def test_bracketed_structure_is_lie_rinehart():
    rep = lr_validate(bracketed_structure())
    assert rep.ok(), rep.first_failure()


def test_rational_structure_is_lie_rinehart():
    rep = lr_validate(rational_structure())
    assert rep.ok(), rep.first_failure()


def test_polynomial_fixture_is_a_valid_twist():
    dfa = polynomial_exp_dfa()
    for rep in (lr_validate(dfa.spec), twistor_validate(dfa),
                deformed_axiom_suite(dfa)):
        assert rep.ok(), rep.first_failure()


@pytest.mark.parametrize("make", STRUCTURES)
def test_table_product_matches_rewriting(make):
    dfa = exp_dfa(make(), 2)
    assert check(dfa, "pbw_mul", inputs=oracles.random_pairs(dfa))


FRACTION_ROWS = [entry[0] for entry in PARITY
                 if entry[0].endswith("/fraction-rows")]


@pytest.mark.parametrize("make", [bracketed_exp_dfa, rational_exp_dfa])
def test_integer_rows_match_fraction_rows(make):
    """The envelope's loops on integer numerators by leg id against the
    nested Fraction rows they replaced (``oracles.frac_*``: ``pbw_mul``,
    ``defelem_mul``, ``basis_decompose``, the source and target series,
    ``_counit_contract`` and ``jets._product_rows``), on the bracketed
    structure at a = 2 and its rational variant, whose leg table holds
    halves; ``test_fast_path_matches_reference`` drives the same entries
    over the generated structures.  Every element they return has nonzero
    int numerators over a positive int denominator in lowest terms."""
    assert len(FRACTION_ROWS) == 6
    dfa = shared(make)
    assert all(check(dfa, name) for name in FRACTION_ROWS)


@pytest.mark.parametrize("make", STRUCTURES + [rational_structure,
                                               polynomial_structure])
def test_mono_loop_matches_replaced_loops(make):
    dfa = exp_dfa(make(), 2)
    assert check(dfa, "_mul_mono_into", "defelem_mul")
    assert check(dfa, "pbw_mul", inputs=oracles.mono_pairs(dfa))


def test_mono_loop_drops_a_row_it_empties():
    """On the bracketed structure anchor(e_0) x1 = x1, so e_0 . (x1 - x1 e_0)
    = x1 e_0 + x1 - x1 e_0^2 - x1 e_0: the numerator of x1 e_0 cancels and
    is dropped, on its own and accumulated with m != 1."""
    spec = bracketed_structure()
    p, m = spec.nvars, spec.rank
    x1, e0, e00 = _bump((0,) * p, 0), _bump((0,) * m, 0), _bump((0,) * m, 0, 2)
    w = EnvElement(p, m, {(0,) * m: CPoly.var(p, 0), e0: -CPoly.var(p, 0)})
    key = leg_id(((0,) * p, e0))
    x1_id, x1e00 = leg_id((x1, (0,) * m)), leg_id((x1, e00))
    assert _mul_mono_into({}, spec, w, key, 1, False) \
        == {x1_id: 1, x1e00: -1}
    start = {x1_id: 3, x1e00: 1}
    assert _mul_mono_into(start, spec, w, key, -3, False) == {x1e00: 4}


@pytest.mark.parametrize("make", STRUCTURES)
def test_leg_product_matches_pbw_mul(make):
    """Every entry of the product table against the rewriting; the table
    fills each entry once, a unit leg's entries pass the other leg
    through, and products of several basis terms are met."""
    dfa = exp_dfa(make(), 2)
    spec = dfa.spec
    spec._leg_table.clear()
    pairs = oracles._leg_pairs(dfa, ())
    assert check(dfa, "leg_product", inputs=pairs)
    unit = leg_id(((0,) * spec.nvars, (0,) * spec.rank))
    for la, lb in pairs:
        ids = (leg_id(la), leg_id(lb))
        entry = spec._leg_table[ids[0]][ids[1]]
        assert leg_product(spec, *ids) is entry
        assert leg_product(spec, unit, ids[0]) == ((ids[0], 1),)
        assert leg_product(spec, ids[0], unit) == ((ids[0], 1),)
    # the rewriting of an entry fills the entries it recurses into
    assert len(leg_table_entries(spec)) >= len({la for la, _ in pairs}) ** 2
    assert max(len(leg_product(spec, leg_id(la), leg_id(lb)))
               for la, lb in pairs) > 2


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


# e^alpha . x^gamma whose chain reaches zero before its first generators act:
# d2^3 kills x2^2 on axb, e3^2 = d2^2 kills x2 on the bracketed structure.
EARLY_ZEROS = {axb_structure: ((2, 3), (1, 2)),
               bracketed_structure: ((1, 0, 2), (0, 1))}


@pytest.mark.parametrize("make", STRUCTURES)
def test_action_table_matches_anchor_chain(make):
    spec = make()
    assert check(exp_dfa(spec, 2), "monomial_action")
    alpha, gamma = EARLY_ZEROS[make]
    assert monomial_action(spec, alpha, gamma).is_zero()
    assert (alpha, gamma) in spec._memos["monomial_action"]


@pytest.mark.parametrize("make", STRUCTURES)
def test_basis_action_and_anchor_action_match_anchor_chain(make):
    dfa = exp_dfa(make(), 2)
    args = oracles._act_args(dfa, ())
    early = ((1,) * dfa.spec.nvars, EARLY_ZEROS[make][0])
    assert check(dfa, "anchor_action", inputs=args + [
        ("key", early, a) for kind, _, a in args if kind == "elem"])


def test_kernel_fast_paths_match_plain_loops():
    def plain_mul(a, b):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, Fraction(0)) + va * vb
        return {k: v for k, v in out.items() if v}

    def random_kernel_poly(rng, nvars=3):
        """Empty, unit monomials, scaled monomials and sums with unit
        terms."""
        shape = rng.choice(("empty", "unit", "monomial", "sum", "sum"))
        if shape == "empty":
            return {}
        size = 1 if shape in ("unit", "monomial") else rng.randint(2, 5)
        out = {}
        for _ in range(size):
            key = tuple(rng.randint(0, 3) for _ in range(nvars))
            out[key] = Fraction(1) if shape == "unit" or rng.random() < 0.4 \
                else Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        return out

    rng = random.Random(5)
    for _ in range(400):
        a, b = random_kernel_poly(rng), random_kernel_poly(rng)
        a0, b0 = dict(a), dict(b)
        want = plain_mul(a, b)
        for got in (kernel.poly_mul(a, b), kernel.poly_mul(b, a)):
            assert got == want
            assert all(type(v) is Fraction for v in got.values())
        for c in (Fraction(1), Fraction(0), Fraction(-1), Fraction(3, 2)):
            got = kernel.poly_scale(a, c)
            assert got == {k: v * c for k, v in a.items() if v * c}
            assert got is not a
        assert (a, b) == (a0, b0)


# -- twisted lifts and the twistor's tables ---------------------------------------


@pytest.mark.parametrize("make", STRUCTURES)
def test_hadamard_lift_matches_cauchy(make):
    dfa = exp_dfa(make(), 3)
    assert check(dfa, "lift_mono", inputs=[
        (key,) for key in oracles.low_monomials(dfa.spec)])


@pytest.mark.parametrize("make", STRUCTURES)
def test_hadamard_coproduct_leg_matches_cauchy(make):
    dfa = exp_dfa(make(), 2)
    assert check(dfa, "deformed_coproduct_leg", inputs=oracles.splice_args(
        dfa, oracles.low_monomials(dfa.spec, 1), wide=False))


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
    spec = espec.build_structure()
    dfas = [DeformedEnvAlgebroid(spec, espec.build_twistor(spec, order),
                                 validate=False) for order in range(1, 11)]
    dfas += [exp_dfa(bracketed_structure(), order) for order in range(1, 4)]
    assert sum(check(dfa, "twistor_invert") for dfa in dfas) == len(dfas)


def random_table_case(i):
    return pytest.param(lambda i=i: random_dfa(i), id="random%d" % i)


TABLE_CASES = [axb_exp_dfa, orders_dfa, bracketed_exp_dfa, rational_exp_dfa,
               polynomial_exp_dfa] + [random_table_case(i) for i in range(6)]


def test_table_cases_include_failing_and_explicit_twistors():
    # the lift identity needs only F . G = 1, so the oracles also run on
    # invertible twistors that are not cocycles, and on form = orders
    dfas = [bracketed_exp_dfa()] + [random_dfa(i) for i in range(6)]
    assert not twistor_validate(dfas[0]).ok()
    assert any(d.twistor.exponent is None for d in dfas)
    assert sum(not twistor_validate(d).ok() for d in dfas) >= 4
    assert all(d.spec.rank <= 4 and d.spec.nvars <= 3 and d.order <= 3
               for d in dfas[1:])
    assert {d.spec.rank for d in dfas} == {2, 3}
    assert {d.spec.nvars for d in dfas} == {0, 1, 2}


@pytest.mark.parametrize("make", TABLE_CASES)
def test_lift_products_match_conjugated_lifts(make):
    """``lift_mono`` multiplies the lifts of x^gamma e^(alpha - e_j) and
    e_j and caches exactly the lifts asked for."""
    dfa = make()
    keys = oracles._lift_keys(dfa, ())
    assert check(dfa, "lift_mono", inputs=keys)
    assert set(dfa._memos["lift_mono"]) == set(keys)


@pytest.mark.parametrize("make", TABLE_CASES)
def test_spliced_lifts_match_conjugated_splices(make):
    dfa = shared(make)
    p, m = dfa.spec.nvars, dfa.spec.rank
    keys = [(_bump((0,) * p, 0), _bump((0,) * m, 0))] if p else []
    assert check(dfa, "deformed_coproduct_leg",
                 inputs=oracles.splice_args(dfa, keys))


@pytest.mark.parametrize("make", TABLE_CASES)
def test_twisted_coproducts_and_projections_match_the_parent_loops(make):
    """The twisted coproduct of an element is one splice of its 1-leg
    series, against one summed series per basis term; the leg projections
    of the membership test read leg ids, against the loop on nested keys.
    Some projection maps a pure base leg."""
    dfa = shared(make)
    assert check(dfa, "twisted_coproduct", "_project_leg")
    assert any(drinfeld._project_leg(dfa, HT, leg, flavor) != HT
               for HT, leg, flavor in oracles.projection_args(dfa))


@pytest.mark.parametrize("make", TABLE_CASES)
def test_monomial_images_match_term_sweeps(make):
    """s_F and t_F read one table of monomial images per deformation,
    filled with exactly the monomials met."""
    dfa = make()
    polys = oracles.image_polys(dfa)
    assert check(dfa, "source_target", inputs=[
        (leg, p) for p in polys for leg in (0, 1)])
    monos = {m for p in polys for m in p.terms}
    images = dfa._memos["_monomial_image"]
    assert {m for m, leg in images if leg == 0} \
        == {m for m, leg in images if leg == 1} == monos


@pytest.mark.parametrize("make", TABLE_CASES)
def test_star_pair_table_matches_direct_star(make):
    """``star_coeffs`` sums a table of monomial pairs, filled with exactly
    the pairs met."""
    dfa = make()
    pairs = oracles.star_table_pairs(dfa)
    assert check(dfa, "star_coeffs", inputs=pairs)
    assert set(dfa._memos["_star_pair"]) == {
        (m, m2) for p, q in pairs for m in p.terms for m2 in q.terms}


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
@pytest.mark.parametrize("which", ["source", "target"])
def test_source_target_match_sweeps(make, which, monkeypatch):
    """A combination whose image cancels a term, where two images of
    monomials share one (on the axb and explicit-order twistors each image
    term remembers its monomial, so none do); the map only reads the
    monomial table."""
    dfa = make()
    spec = dfa.spec
    leg = 0 if which == "source" else 1
    polys = oracles.sweep_polys(dfa, leg)
    assert check(dfa, "source_target", inputs=[(leg, p) for p in polys])
    cancel = oracles.base_cancel(dfa, leg)
    if cancel is not None:
        assert cancel[1] not in flat_terms(getattr(dfa, which)(cancel[0]))
    table = dfa._memos["_monomial_image"]
    assert {m for m, l in table if l == leg} \
        >= {m for p in polys for m in p.terms}
    want = [sweep_base_map(spec, dfa.twistor, p, leg) for p in polys]
    filled = dict(table)
    monkeypatch.setattr(deform, "_sweep_image", None)
    assert [getattr(dfa, which)(p) for p in polys] == want
    assert table == filled


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
def test_star_coeffs_match_sweeps(make, monkeypatch):
    """(x1 + x1 x2)(x2 - 1) cancels its two x1 x2 terms at order zero; the
    product only reads the table of monomial pairs."""
    dfa = make()
    pairs = oracles.star_sweep_pairs(dfa)
    assert check(dfa, "star_coeffs", inputs=pairs)
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    assert (0, (1, 1)) not in flat_terms(dfa.star_coeffs(x1 + x1 * x2, x2 - 1))
    want = [dfa.star_coeffs(p, q) for p, q in pairs]
    filled = dict(dfa._memos["_star_pair"])
    monkeypatch.setattr(deform, "_sweep_image", None)
    monkeypatch.setattr(deform, "anchor_action", None)
    assert [dfa.star_coeffs(p, q) for p, q in pairs] == want
    assert dfa._memos["_star_pair"] == filled


def test_twistor_images_are_kept_per_structure():
    """One twistor series on two structures of the same shape whose
    anchors differ by a factor 2: each of the two deformations sweeps its
    own s_F and t_F images into its own memos, checked against the term
    sweeps, and the twistor they share keeps no table."""
    espec = load_spec_file(SPEC)
    # the series alone: exp(h r) on axb is not exp(h r) on the other
    tw = Twistor(espec.build_twistor(espec.build_structure(), 3).series)
    zero = CPoly.zero(2)

    def doubled():
        two = CPoly.const(2, 2)
        return LieRinehartSpec(2, 2, {}, [[two, zero], [zero, two]],
                               name="doubled")

    monos = monomials_upto(2, 2)
    seen = []
    for make in (axb_structure, doubled):
        dfa = DeformedEnvAlgebroid(make(), tw, validate=False)
        twistor_validate(dfa)
        check(dfa, "source_target", inputs=[(leg, a) for a in monos
                                            for leg in (0, 1)])
        assert set(dfa._memos["_monomial_image"]) == {
            (m, leg) for a in monos for m in a.terms for leg in (0, 1)}
        seen.append([[mapper(a) for a in monos]
                     for mapper in (dfa.source, dfa.target)])
    assert seen[0][0] != seen[1][0]
    assert not [v for v in vars(tw).values() if isinstance(v, dict)]


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
def test_series_images_match_chains(make):
    assert check(shared(make), "series_images")


# -- the tensor layer ---------------------------------------------------------------


@pytest.mark.parametrize("make", STRUCTURES)
def test_tensor_mul_matches_plain_loop(make):
    """Products of 2, 3 and 4 legs, from an emptied leg table; a 4-leg pair
    takes the general loop of the oracles, which the engine refuses."""
    dfa = exp_dfa(make(), 2)
    spec = dfa.spec
    spec._leg_table.clear()
    assert check(dfa, "tensor_mul", inputs=oracles.factor_pairs(dfa))
    assert leg_table_entries(spec)
    four = tensor_groups(dfa)[2]
    with pytest.raises(ConfigError, match="2 or 3 legs"):
        tensor_mul(spec, four[0], four[-1])


INTEGER_LAYER_STRUCTURES = [axb_structure, bracketed_structure,
                            rational_structure]


@pytest.mark.parametrize("make", INTEGER_LAYER_STRUCTURES)
def test_integer_layer_matches_fraction_loops(make):
    """Sums, scales, outer products of elements, coproduct legs, element
    coproducts and reductions on integer numerators against the Fraction
    loops; the memo may hold
    Delta(e^alpha) over any denominator, which the coproduct leg aligns;
    the leg table holds ints, and Fractions only where an entry is not
    integral (the rational structure)."""
    dfa = exp_dfa(make(), 2)
    spec = dfa.spec
    two, three = oracles.integer_layer_inputs(spec)
    legs = oracles.copro_args(two + three)
    assert check(dfa, "tensor_arithmetic", "env_coproduct", "TensorElement.of")
    assert check(dfa, "tensor_reduce", inputs=[(T,) for T in two + three])
    assert check(dfa, "tensor_coproduct_leg", inputs=legs)
    copro = spec._memos["_copro_mono"]
    for i, alpha in enumerate(list(copro)):
        copro[alpha] = copro[alpha].scale(i + 2).scale(Fraction(1, i + 2))
    assert len({T.den for T in copro.values()}) > 2
    assert check(dfa, "tensor_coproduct_leg", inputs=legs)
    assert_integral(two[0].flip())
    assert_integral(two[0].embed(4, 2))
    entries = [q for hit in leg_table_entries(spec).values() for _, q in hit]
    assert all(type(q) in (int, Fraction) for q in entries)
    assert all(type(q) is int for q in entries if q.denominator == 1)
    assert any(type(q) is Fraction for q in entries) \
        == (make is rational_structure)


@pytest.mark.parametrize("make", [axb_exp_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa])
def test_loop_nests_match_general_loop(make):
    """``_mul_into`` on 2- and 3-leg tensors against the general loop
    ``oracles.mul_into_legs``: the same terms in the same order, the same
    int or Fraction values, from empty and non-empty accumulators, with
    m = 1 and m != 1, and into an accumulator the product cancels to
    empty.  The nests run first, from an emptied table, and meet a leg
    product with several terms and, on the rational structure only,
    Fraction leg coefficients."""
    dfa = make()
    spec = dfa.spec
    spec._leg_table.clear()
    args = oracles._nest_pairs(dfa, ())
    assert check(dfa, "_mul_into", inputs=args)
    assert any(len(hit) > 1 for hit in leg_table_entries(spec).values())
    fractions = any(type(c) is Fraction for s, t, _ in args
                    for c in tensorspace._mul_into({}, spec, s, t, 1).values())
    assert fractions == (make is rational_exp_dfa)


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


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa])
def test_tensor_series_mul_matches_chain(make):
    dfa = shared(make)
    assert check(dfa, "tensor_series_mul")
    # F G = 1 (x) 1: every order above zero cancels to the empty tensor
    FG = tensor_series_mul(dfa.spec, dfa.twistor.series, dfa.G)
    assert all(not T.num and T.den == 1 for T in FG.coeffs[1:])


@pytest.mark.parametrize("make", INTEGER_LAYER_STRUCTURES)
def test_interned_tensor_layer_matches_nested_keys(make):
    """The inputs reach every shape the loops distinguish: legs that are
    not pure on several legs, and products of several basis terms."""
    dfa = exp_dfa(make(), 2)
    spec = dfa.spec
    two, three = oracles.integer_layer_inputs(spec)
    four = tensor_groups(dfa)[2]
    assert check(dfa, "tensor_mul", inputs=oracles.layer_pairs(dfa))
    assert check(dfa, "copro_basis")
    assert check(dfa, "tensor_reduce", inputs=[(T,) for T in two + three])
    assert check(dfa, "tensor_coproduct_leg",
                 inputs=oracles.copro_args(two + three + four))
    assert any(LEGS[k][0] != (0,) * spec.nvars for T in four
               for key in T.num for k in key[:-1])
    assert any(len(hit) > 1 for hit in leg_table_entries(spec).values())


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa])
def test_reduce_kernels_match_the_loop(make):
    """``tensor_reduce``'s fixed 2- and 3-leg loops and ``same_class`` (one
    signed reduction over the common denominator) against the reduction
    on nested keys, each called twice (the second time every shift is
    interned); the inputs reach a 3-leg key whose middle leg carries a
    gamma, alone and beside one on the first leg, and equal classes over
    different denominators.  A 4-leg tensor is refused by both, as no
    command reduces one."""
    dfa = make()
    spec = dfa.spec
    assert check(dfa, "tensor_reduce", "same_class")
    two, three, four = tensor_groups(dfa)
    for T in four:
        for fn in (lambda: tensor_reduce(spec, T),
                   lambda: same_class(spec, T, T)):
            with pytest.raises(ConfigError, match="2 or 3 legs"):
                fn()
    middle = [(GAMMA[a], GAMMA[b]) for T in three for a, b, _ in T.num]
    assert any(gb is not None and ga is None for ga, gb in middle)
    assert any(gb is not None and ga is not None for ga, gb in middle)
    assert any(same_class(spec, s, t) and s.den != t.den
               for s, t in oracles._class_pairs(dfa, ()))


# -- reductions and decompositions -------------------------------------------------


REDUCTION_CASES = [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                   rational_exp_dfa, polynomial_exp_dfa]


@pytest.mark.parametrize("make", REDUCTION_CASES)
def test_reduce_series_matches_uncached(make):
    """The first pass fills the leg table and the migrants; the second
    reads every migration and leg product from the caches."""
    dfa = make()
    inputs = reduction_inputs(dfa)
    assert {t.zero.legs for t in inputs} == {2, 3}
    before = len(leg_table_entries(dfa.spec))
    assert check(dfa, "reduce_series")
    filled = len(leg_table_entries(dfa.spec))
    assert filled > before and dfa._memos["migrants"]
    for HT in inputs:
        reduce_series(dfa, HT)
    assert len(leg_table_entries(dfa.spec)) == filled


def takeuchi_inputs(dfa):
    """Both sides of ``takeuchi_check_deformed`` on the lifts of the sample
    elements: HT (t_F(a) (x) 1) and HT (1 (x) s_F(a))."""
    spec = dfa.spec
    one = EnvElement.one(spec.nvars, spec.rank)
    out = []
    for u in deform.sample_defelems(dfa, 2):
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
    assert set(dfa._memos["decompose_mono"]) \
        == {((g, zeros), "target") for g in gammas}
    assert {LEGS[g] for g, in dfa._memos["migrants"]} \
        == {(g, zeros) for g in gammas}


@pytest.mark.parametrize("make", REDUCTION_CASES)
def test_reduce_leg_matches_nested_keys(make):
    """Each reduction step on 2-, 3- and 4-leg inputs, raw and after the
    earlier legs were reduced, in term order and denominator on nested
    keys and in value against the uncached step; chained, the steps are
    ``reduce_series``.  Only the polynomial structure function makes
    e^beta e^alpha impure, so that the step takes another pass."""
    dfa = shared(make)
    args = reduce_args(dfa)
    assert {HT.zero.legs for HT, _ in args} == {2, 3, 4}
    assert check(dfa, "_reduce_leg", inputs=args)
    assert any(any(LEGS[key[leg]][0]) for HT, leg in args for T in HT.coeffs
               for key in T.num)
    assert any(carries(dfa, HT, leg) for HT, leg in args) \
        == (make is polynomial_exp_dfa)
    for HT, leg in args[::2]:
        chained = HT
        for k in range(HT.zero.legs - 1):
            chained = deform._reduce_leg(dfa, chained, k)
        assert chained == reduce_series(dfa, HT)


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
@pytest.mark.parametrize("flavor", ["source", "target"])
def test_basis_decompose_matches_backsubstitution(make, flavor):
    dfa = shared(make)
    assert check(dfa, "basis_decompose", inputs=[
        args for args in oracles._decompose_args(dfa, ())
        if args[1] == flavor])


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa, polynomial_exp_dfa,
                                  central_exp_dfa])
@pytest.mark.parametrize("flavor", ["source", "target"])
def test_decompose_mono_matches_whole_monomial(make, flavor, monkeypatch):
    """One solve per x^gamma; the others are the impure remainders, which
    only a polynomial structure function makes, all O(h)."""
    dfa = make()
    spec = dfa.spec
    solved = []
    real = deform.basis_decompose

    def recording(dfa_, u, flavor_):
        solved.append(u)
        return real(dfa_, u, flavor_)

    monkeypatch.setattr(deform, "basis_decompose", recording)
    assert check(dfa, "decompose_mono", inputs=[
        args for args in oracles._mono_keys(dfa, ()) if args[1] == flavor])
    gammas = pbw_indices(spec.nvars, 2)
    bases = [deform.defelem_from_env(spec, EnvElement.from_poly(
        spec.rank, CPoly.monomial(spec.nvars, g)), dfa.order) for g in gammas]
    assert [sum(u == b for u in solved) for b in bases] == [1] * len(bases)
    rest = [u for u in solved if u not in bases]
    assert bool(rest) == (make in (polynomial_exp_dfa, central_exp_dfa))
    assert all(u.coeffs[0].is_zero() for u in rest)
    composed = ((1,) + (0,) * (spec.nvars - 1), (0,) * (spec.rank - 1) + (1,))
    with pytest.raises(ConfigError):
        dfa.decompose_mono(composed, "sideways")


# -- jet pairings ------------------------------------------------------------------


@pytest.mark.parametrize("make", REDUCTION_CASES)
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pairing_sums_match_chains(make, flavor):
    """The pairings of monomials, elements and Laurent series, the Laurent
    product and the dual product's sum against their chains; xi_0 -
    xi_last on e_0 + e_last gives two pieces that cancel to zero, and an
    empty window has no product."""
    dfa = shared(make)
    ctx = JetContext(dfa, flavor, 2)
    funcs = edge_functionals(ctx)
    assert check(dfa, "_pair_mono", inputs=[
        (ctx, lam, key) for lam in funcs for key in pairing_keys(dfa.spec)])
    assert check(dfa, "jet_pair", "laurent_mul", flavors=(flavor,))
    assert check(dfa, "jet_product_eval", inputs=oracles._eval_args(
        dfa, (flavor,), 1, edge_functionals))
    elems = oracles.edge_elements(dfa.spec)
    val, top, coeffs = window(oracles.pair_element(ctx, funcs[1], elems[1]))
    assert (val, top) == (0, ctx.order) and all(c.is_zero() for c in coeffs)
    empty = HLaurent.zero_upto(-1, ctx.zero_poly())
    for mul in (laurent_mul, oracles.chain_laurent_mul):
        with pytest.raises(ConfigError):
            mul(empty, funcs[1].table[_bump((0,) * dfa.spec.rank, 0)],
                dfa.star_coeffs, ctx.order)


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_jet_product_eval_matches_unmemoised(make, flavor, monkeypatch):
    """Each functional's product rows and their supports are built while
    it meets its first partner; every later partner reads those same rows
    and supports and builds none.  A mapped image is None exactly under
    the legs lam pairs with zero, and holds no rows there.  A tabulation
    (``jet_product``) calls no ``jet_product_eval``, pairs each factor of
    a (paired leg, other leg) at most once and none on a leg where lam
    vanishes.  The transpose lists each pair of each index's lift exactly
    once, under the leg the dual pairs on."""
    dfa = shared(make)
    assert check(dfa, "jet_product_eval", flavors=(flavor,))
    ctx = JetContext(dfa, flavor, 2)
    spec = dfa.spec
    funcs = oracles.table_functionals(ctx)
    args = [((0,) * spec.nvars, beta) for beta in pbw_indices(spec.rank, 2)]
    args.append((_bump((0,) * spec.nvars, 0), _bump((0,) * spec.rank,
                                                    spec.rank - 1)))
    for lam in funcs:
        built = None
        for mu in funcs:
            for a in args:
                jets.jet_product_eval(ctx, lam, mu, a)
            images = lam._memos["_image"]
            assert all(lift for _, _, lift in images)
            rows = {(ckey, other): hit
                    for ckey, (_, per) in images.items()
                    for other, hit in per.items()}
            if built is None:
                built = rows
                for r, support in built.values():
                    assert support == jets._support(ctx, (
                        LEGS[i] for _, num, _ in r for i in num), flavor)
            assert rows.keys() == built.keys()
            assert all(r is built[k][0] and support is built[k][1]
                       for k, (r, support) in rows.items())
        for (_, paired, _), (W, per) in lam._memos["_image"].items():
            assert (W is None) == chain_pair_mono(ctx, lam, paired).is_zero()
            assert W is not None or not per
    records = oracles.watch_tabulations(monkeypatch)
    for lam in funcs:
        for mu in funcs:
            jets.jet_product(ctx, lam, mu)
    assert len(records) == len(funcs) ** 2
    assert not any(r["evaluations"] or r["paired_vanishing"] for r in records)
    assert all(set(r["pairs"].values()) <= {1} for r in records)
    assert any(r["pairs"] for r in records)
    leg = 1 if flavor == LEFT else 0
    indices, lifts, pairs = jets._transpose(ctx, 2)
    assert indices == pbw_indices(spec.rank, 2)
    want = Counter((p, key) for p, beta in enumerate(indices)
                   for key in {key for T in dfa.lift_mono(
                       ((0,) * spec.nvars, beta)).coeffs for key in T.num})
    got = Counter((p, key) for others in pairs.values()
                  for key, positions in others.items() for p in positions)
    assert got == want and set(got.values()) == {1}
    assert all(key[leg] == w for w, others in pairs.items() for key in others)
    assert all(list(positions) == sorted(set(positions))
               for others in pairs.values() for positions in others.values())
    assert all(lift is dfa.lift_mono(((0,) * spec.nvars, beta)).coeffs
               for beta, lift in zip(indices, lifts))


@pytest.mark.parametrize("make", [axb_exp_dfa, bracketed_exp_dfa,
                                  polynomial_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_rows_match_the_plain_loop(make, flavor):
    """``_pair_rows`` skips pairings that are the shared zero and returns a
    lone unit term's memoised pairing, shifted, when its top is at most N;
    a pairing that is the empty window up to N is the shared zero, and the
    empty functional pairs to it on every key.  The row sets mix the
    shared zero with nonzero pairings."""
    dfa = shared(make)
    assert check(dfa, "_pair_rows", flavors=(flavor,))
    ctx = JetContext(dfa, flavor, 2)
    n, zero = ctx.order, ctx.zero_value()
    keys = pairing_keys(dfa.spec, 1)
    funcs = rows_functionals(ctx)
    mixed = False
    for lam in funcs:
        pairing = {key: pair_basis(ctx, lam, key) for key in keys}
        for rows in rows_cases(dfa.spec):
            found = [pairing[LEGS[i]] for _, num, _ in rows for i in num]
            mixed |= any(v is zero for v in found) \
                and any(not v.is_zero() for v in found)
        for (g, a), v in pairing.items():
            if not v.coeffs and v.top == n:
                assert v is zero
            unit = {leg_id((g, a)): 1}
            got = jets._pair_rows(ctx, lam, [(0, unit, 1)], n)
            if v.top <= n:
                assert got is v
                assert window(jets._pair_rows(ctx, lam, [(2, unit, 1)],
                                              n)) == window(v.shift(2))
            else:
                assert got.top == n
    assert all(pair_basis(ctx, funcs[0], key) is zero for key in keys)
    assert mixed


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_mono_matches_the_decomposed_pairing(flavor):
    """``_pair_mono`` returns the shared zero without decomposing x^gamma
    e^alpha when ``jets._misses`` of its ``jets._support`` holds; its value,
    window and identity with the shared zero are those of the chain over
    the whole decomposition.  On the fixtures, on ``central_exp_dfa``, whose
    remainders reach indices that no pure term has, and on the seeded
    structures of two seeds that have a base variable (seed 13 draws a
    polynomial structure function), with floors on the keys the test
    decides and on the impure keys that fall back."""
    side = "source" if flavor == LEFT else "target"
    seeded = [d for d in (shared(random_dfa, i, seed) for seed in (11, 13)
                          for i in range(6)) if d.spec.nvars]
    assert len(seeded) >= 6
    polynomial = [shared(polynomial_exp_dfa), shared(central_exp_dfa)]
    totals = Counter()
    for dfa in [shared(axb_exp_dfa), shared(orders_dfa),
                shared(bracketed_exp_dfa), shared(rational_exp_dfa)] \
            + polynomial + seeded:
        args = oracles._pair_mono_args(dfa, (flavor,))
        assert check(dfa, "_pair_mono", inputs=args)
        counts = Counter()
        for ctx, lam, key in args:
            if not any(key[0]):
                continue
            support = jets._support(ctx, (key,), flavor)
            # the support is read from the deformation's memo the second time
            assert support == jets._support(ctx, (key,), flavor)
            if jets._misses(lam, support):
                counts["decided"] += 1
            elif impure_leg_product(dfa, key, side):
                counts["impure"] += 1
        assert counts["decided"] > 0
        if not polynomial_brackets(dfa.spec):
            # only a polynomial structure function makes an impure term
            assert counts["impure"] == 0
        if dfa in polynomial:
            assert counts["impure"] > 0
        totals.update(counts)
    assert totals["decided"] >= 1000 and totals["impure"] >= 80


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_product_matches_built_product(make, flavor):
    """lam on W . m and m . W read by ``_pair_image`` on a fresh entry
    (W, {}), against the product built and paired through the chains."""
    assert check(shared(make), "_pair_image", flavors=(flavor,))


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
    gens = [jets.xi_functional(ctx, i) for i in range(m)]
    lam = gens[0].shift(-1).add(gens[-1])
    unmerged = [(t, q * r) for alpha, poly in w.terms.items()
                for gamma, q in poly.terms.items()
                for t, r in nested_leg_product(spec, mono, (gamma, alpha))]
    cancelled = (x1, e0)
    assert [c for t, c in unmerged if t == cancelled] == [1, -1]
    assert leg_id(cancelled) not in _mul_mono_into({}, spec, w, leg_id(mono),
                                                   1, False)
    got = jets._pair_image(ctx, lam, (W, {}), mono, False)
    built = built_product_series(spec, W, mono, False)
    assert window(got) == window(chain_pair_env_laurent(ctx, lam, built))
    assert got.top == n
    assert jets._pair_mono(lam, ctx, cancelled).top < got.top


# -- functionals of pairs, coproducts and the dual source/target -------------------


# the jet degree of each fixture's tables
UNSKIPPED_DEGREES = {axb_exp_dfa: 2, bracketed_exp_dfa: 2,
                     rational_exp_dfa: 3, polynomial_exp_dfa: 3}


@pytest.mark.parametrize("make", list(UNSKIPPED_DEGREES))
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_tensor_functional_from_pair_matches_unskipped(make, flavor):
    """Against the body that maps and multiplies every entry; the skip of
    vanishing first pairings is taken."""
    dfa = shared(make)
    degree = UNSKIPPED_DEGREES[make]
    args = oracles._from_pair_args(dfa, (flavor,), degree)
    assert check(dfa, "tensor_functional_from_pair", inputs=args)
    zeros = (0,) * dfa.spec.nvars
    assert any(pair_basis(ctx, lam if flavor == LEFT else mu,
                          (zeros, beta)).is_zero()
               for ctx, lam, mu, _ in args
               for beta in pbw_indices(dfa.spec.rank, degree))


@pytest.mark.parametrize("make", [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                                  rational_exp_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_coproduct_and_source_target_match_built_products(make, flavor):
    """The coproduct functional of the edge cases and the dual source and
    target of zero, a coordinate, a constant and a mixed polynomial with a
    Fraction."""
    dfa = shared(make)
    ctx = JetContext(dfa, flavor, 2)
    assert check(dfa, "jet_coproduct_functional", inputs=[
        (ctx, lam, 2) for lam in edge_functionals(ctx)])
    x1, xl = CPoly.var(2, 0), CPoly.var(2, 1)
    assert check(dfa, "jet_source_target", inputs=[(ctx, a, 2) for a in (
        CPoly.zero(2), x1, CPoly.const(2, 2),
        x1 * xl - CPoly.const(2, Fraction(2, 3)) + x1 * x1)])


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
    dfa = shared(make)
    assert polynomial_brackets(dfa.spec)
    args = oracles._source_target_args(dfa, (flavor,), (3,))
    assert check(dfa, "jet_source_target", inputs=args)
    # image . e^beta is the source table of the left dual and the target
    # table of the right one
    right = 0 if flavor == LEFT else 1
    for ctx, a, degree in args:
        assert set(built_source_target(ctx, a, degree)[right]) \
            <= {(0,) * dfa.spec.rank}


JET_TABLE_CASES = [axb_exp_dfa, orders_dfa, bracketed_exp_dfa,
                   rational_exp_dfa, polynomial_exp_dfa] + [
    pytest.param(lambda i=i, seed=seed: random_dfa(i, seed),
                 id="seed%d-%d" % (seed, i))
    for i, seed in ((0, 11), (3, 13), (5, 11))]


@pytest.mark.parametrize("make", JET_TABLE_CASES + [rank4_dfa])
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_jet_product_matches_the_gather(make, flavor):
    """One context takes degrees 1, 2, 3, the associativity reach of
    ``jet_axiom_suite`` and 2 again, so each degree reads its own
    transpose; some products are nonzero and some values carry windows
    other than (0, N)."""
    dfa = shared(make)
    args = oracles._jet_product_args(dfa, (flavor,))
    assert check(dfa, "jet_product", inputs=args)
    ctx = args[0][0]
    # the oracle's values are memoised per context by now
    tables = [oracles.gathered_jet_product(ctx, lam, mu, d).table
              for _, lam, mu, d in args]
    assert any(tables)
    assert any((v.val, v.top) != (0, ctx.order)
               for t in tables for v in t.values())
    assert {d for d, in ctx._memos["_transpose"]} \
        == set(jet_product_degrees(ctx))


def impure_rows(rows):
    """Whether rows (q, num, den) hold a term x^gamma e^alpha with
    gamma != 0."""
    return any(PURE[i] != i for _, num, _ in rows for i in num)


@pytest.mark.parametrize("make", JET_TABLE_CASES)
@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_context_and_functional_tables_match_loops(make, flavor):
    """The paths that read tables built once per context or functional
    (the rows of the context's basis monomials that the coproduct
    functional reads, the images and rows of a pair's first functional),
    and the dual source/target at degrees 1 and 2, against the bodies
    that build every product.  On the structures with polynomial
    structure functions some product rows of the context's basis
    monomials are impure and at least three with pure indices off lam's
    table are kept by the supports of their impure terms."""
    dfa = shared(make)
    spec = dfa.spec
    ctx = JetContext(dfa, flavor, 2)
    funcs = edge_functionals(ctx) + [jets.coordinate_functional(ctx, 0)]
    assert check(dfa, "jet_coproduct_functional", inputs=[
        (ctx, lam, 2) for lam in funcs + dual_functionals(ctx)])
    assert check(dfa, "tensor_functional_from_pair", inputs=[
        (ctx, lam, mu, 2) for lam in funcs[1:] for mu in funcs[1:]])
    p = spec.nvars
    x1, xl = CPoly.var(p, 0), CPoly.var(p, p - 1)
    # a table at degree 1 is not one at 2
    args = [(ctx, a, degree) for degree in (1, 2) for a in (
        CPoly.zero(p), x1, x1 * xl - CPoly.const(p, Fraction(2, 3)))]
    assert check(dfa, "jet_source_target", inputs=args)
    zeros = (0,) * spec.nvars
    fallbacks = 0
    for lam in funcs + dual_functionals(ctx):
        for b1, b2 in jet_coproduct_functional(ctx, lam, 2):
            paired, moved = (b2, b1) if flavor == LEFT else (b1, b2)
            r, _ = ctx._memos["_monomial"][(paired,)][1][zeros, moved]
            pure = {LEGS[i][1] for _, num, _ in r for i in num
                    if PURE[i] == i}
            fallbacks += impure_rows(r) and not pure & lam.table.keys()
    impure = sum(impure_rows(r) for _, per in ctx._memos["_monomial"].values()
                 for r, _ in per.values())
    if polynomial_brackets(spec):
        assert impure and fallbacks >= 3
    else:
        assert impure == fallbacks == 0


def test_impure_entries_and_rows_skip_by_pairing_support():
    """On the structures with polynomial structure functions (the
    polynomial and central fixtures and the seeded structures 13-3 and
    17-3), both flavors, the coproduct functional skips some product rows
    of the context's basis monomials that hold an impure term, and the
    tensor functional of a pair some product rows of an image that hold
    one, by the pairing supports of those terms and without a pairing;
    each result equals the body that builds every product.  On the
    polynomial fixture every impure row holds a term whose own pairing
    support is None, so nothing is skipped by a support and every pairing
    is checked."""
    skips = Counter()
    for name, make in (("polynomial", polynomial_exp_dfa),
                       ("central", central_exp_dfa),
                       ("seed13-3", lambda: random_dfa(3, 13)),
                       ("seed17-3", lambda: random_dfa(3, 17))):
        dfa = make()
        assert polynomial_brackets(dfa.spec)
        for ctx in contexts(dfa, (LEFT, RIGHT)):
            funcs = edge_functionals(ctx) \
                + [jets.coordinate_functional(ctx, 0)] + dual_functionals(ctx)
            for lam in funcs:
                assert windows(jet_coproduct_functional(ctx, lam, 2)) \
                    == windows(built_coproduct_functional(ctx, lam, 2))
                # lam read every row of the context's basis monomials
                skips["entries", name] += sum(
                    impure_rows(r) and jets._misses(lam, support)
                    for _, per in ctx._memos["_monomial"].values()
                    for r, support in per.values())
            for lam in funcs[1:]:
                for mu in funcs:
                    assert windows(tensor_functional_from_pair(
                        ctx, lam, mu, 2)) == windows(
                        unskipped_tensor_functional_from_pair(ctx, lam, mu, 2))
                    first, second = (lam, mu) if ctx.flavor == LEFT \
                        else (mu, lam)
                    # at one degree every call reads every row of first's
                    # images
                    skips["rows", name] += sum(
                        impure_rows(r) and jets._misses(second, support)
                        for (_, _, lift), (_, per)
                        in first._memos["_image"].items()
                        if not lift for r, support in per.values())
    for name in ("central", "seed13-3", "seed17-3"):
        assert skips["entries", name] and skips["rows", name], name


def test_tables_never_cross_contexts_or_deformations():
    """The left and right contexts on one deformation, and the exponential
    and trivial deformations of one structure (as the classical-limit
    check of ``jet_axiom_suite`` builds them), each read only their own
    pairing supports, basis-monomial rows and images.  One
    functional of each flavor is the first factor of a tensor functional
    in both contexts of its flavor, lam in a left one and mu in a right
    one, and its image there is mapped by s_F (left) and t_F (right),
    which differ on its coordinate value; it is also the first factor of
    dual products, whose images on the same keys are mapped by the other
    map and multiplied on the other side, so an image keyed without the
    context or without telling the two transposes apart is read wrongly.  The trivial context goes first, so a stale support (x^gamma
    alone) would skip pairings the twist needs."""
    dfa = axb_exp_dfa()
    spec = dfa.spec
    triv = DeformedEnvAlgebroid(spec, trivial_twistor(spec, dfa.order),
                                validate=False)
    contexts_ = [JetContext(d, flavor, 2) for d in (triv, dfa)
                 for flavor in (LEFT, RIGHT)]
    shared = {flavor: jets.coordinate_functional(JetContext(triv, flavor, 2), 0)
              .add(jets.xi_functional(JetContext(triv, flavor, 2), 0))
              for flavor in (LEFT, RIGHT)}
    x1 = CPoly.var(spec.nvars, 0)
    keys = pairing_keys(spec)[len(pbw_indices(spec.rank, 2)):]
    for ctx in contexts_:
        first = other = shared[ctx.flavor]
        # the duals of the monomials of degree <= 2 as second factors, which
        # see the s_F and t_F images of the first apart
        seconds = [other] + dual_functionals(ctx)
        for _ in range(2):
            d = ctx.dfa
            check(d, "tensor_functional_from_pair", inputs=[
                (ctx, *((first, s) if ctx.flavor == LEFT else (s, first)), 2)
                for s in seconds])
            check(d, "jet_product", inputs=[(ctx, first, s, 2)
                                            for s in seconds])
            check(d, "jet_coproduct_functional", inputs=[(ctx, other, 2)])
            check(d, "jet_source_target", inputs=[(ctx, x1, 2)])
            check(d, "_pair_mono", inputs=[(ctx, other, key) for key in keys])
    # every context filled its own tables
    for a, b in itertools.combinations(contexts_, 2):
        assert a._memos is not b._memos and a._memos["_monomial"]
    for f in (LEFT, RIGHT):
        assert {(c.dfa, lift) for c, _, lift in shared[f]._memos["_image"]} \
            == {(d, lift) for d in (triv, dfa) for lift in (True, False)}
    # on one key of one deformation, the two transposes' images of a
    # shared functional differ, and so do its s_F and t_F images as a
    # first factor; so do the supports of the two deformations
    images = {}
    for f in (LEFT, RIGHT):
        for (c, key, lift), (W, _) in shared[f]._memos["_image"].items():
            if c.dfa is dfa and W is not None:
                images.setdefault(key, {})[f, lift] = window(W)
    assert any(im[f, True] != im[f, False] for im in images.values()
               for f in (LEFT, RIGHT) if (f, True) in im and (f, False) in im)
    assert any(im[LEFT, False] != im[RIGHT, False] for im in images.values()
               if (LEFT, False) in im and (RIGHT, False) in im)
    assert any(triv.pairing_support(key, "source")
               != dfa.pairing_support(key, "source") for key in keys)
