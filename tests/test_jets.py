import functools
import gc
import types
from fractions import Fraction

import pytest

from qgroupoid import jets
from qgroupoid.axb import build_axb
from qgroupoid.deform import DeformedEnvAlgebroid, defelem_from_env, exp_twistor, trivial_twistor
from qgroupoid.envelope import EnvElement, pbw_mul
from qgroupoid.errors import FlavorError
from qgroupoid.jets import (
    LEFT, RIGHT, JetContext, JetElement, _pair_mono, coordinate_functional,
    jet_axiom_suite, jet_coproduct_functional,
    jet_counit, jet_product, jet_product_eval, jet_source_target,
    jets_equal, tensor_functional_from_pair, tensor_tables_equal,
    unit_functional, xi_functional,
)
from qgroupoid.lierinehart import LieRinehartSpec
from qgroupoid.scalars import CPoly
from qgroupoid.series import HLaurent

from oracles import (
    GENERATED, SPEC, _spec_dfa, evaluation_iso_check, generated_dfa,
    functional_mismatches, jet_coproduct_decompose, pair_basis, pair_element,
    pair_image_values, pair_laurent, rescaled_values, truncation_mismatches,
)
from test_cli import _bracket_spec_text, parse_lines, run_cli
from test_reachability import POLYNOMIAL_SPEC


def der2():
    one, zero = CPoly.one(2), CPoly.zero(2)
    return LieRinehartSpec(2, 2, {}, [[one, zero], [zero, one]])


def make_ctx(flavor, order=4, d=4):
    spec = der2()
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    d2 = EnvElement.gen(2, 2, 1)
    from qgroupoid.tensorspace import TensorElement
    r = (TensorElement.of(theta, d2) - TensorElement.of(d2, theta)).scale(Fraction(1, 2))
    dfa = DeformedEnvAlgebroid(spec, exp_twistor(spec, r, order), validate=False)
    return JetContext(dfa, flavor, d)


def make_trivial_ctx(flavor, spec=None, order=3, d=4):
    spec = spec or der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, order), validate=False)
    return JetContext(dfa, flavor, d)


def const_val(ctx, c):
    return HLaurent.const(CPoly.const(ctx.spec.nvars, c), ctx.order,
                          ctx.zero_poly())


def assert_val(v, expect, order=None):
    """expect: dict h-order -> CPoly (or Fraction for constants)."""
    top = v.top if order is None else order
    for n in range(v.val, top + 1):
        got = v.coeff(n)
        want = expect.get(n)
        if want is None:
            assert got.is_zero(), (n, got)
        else:
            assert got == want, (n, got, want)
    for n, want in expect.items():
        assert v.val <= n <= top


def test_pairing_basics():
    ctx = make_ctx(LEFT)
    de1 = xi_functional(ctx, 0)
    e2 = coordinate_functional(ctx, 1)
    x2 = CPoly.var(2, 1)
    assert_val(pair_basis(ctx, de1, ((0, 0), (1, 0))), {0: CPoly.one(2)})
    assert_val(pair_basis(ctx, de1, ((0, 0), (0, 1))), {})
    assert_val(pair_basis(ctx, e2, ((0, 0), (0, 0))), {0: x2})
    # the counit functional is the dual unit and pairs to eps
    eps = unit_functional(ctx)
    u = EnvElement(2, 2, {(0, 0): x2, (1, 0): CPoly.one(2)})
    assert_val(pair_element(ctx, eps, u), {0: x2})


def test_pairing_memo_follows_the_deformation(monkeypatch):
    """One functional paired against two deformations built in turn: the
    memo entry made for the first must not answer for the second.  A memo
    keyed by id() fails this once a freed deformation's id is reused; here
    every id() collides, so that case is certain."""
    monkeypatch.setattr(jets, "id", lambda obj: 0, raising=False)
    key = ((1, 0), (0, 0))  # x1 = s_F(x1) - (h/2) x1 d2 + ... when twisted
    ctx = make_ctx(LEFT, order=3)
    lam = xi_functional(ctx, 1)
    deformed = _pair_mono(lam, ctx, key)
    ctx = make_trivial_ctx(LEFT, order=3)
    fresh = xi_functional(ctx, 1)
    assert _pair_mono(lam, ctx, key).eq_to_order(_pair_mono(fresh, ctx, key))
    assert not deformed.eq_to_order(_pair_mono(fresh, ctx, key))


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pairing_memo_follows_the_context(flavor):
    """One functional paired under two contexts of one deformation and
    flavor, at jet degrees 2 and 3: the pairings are equal, window
    included, and a pairing that misses lam's table is the reading
    context's own ``zero_value()``, which ``_pair_rows`` skips by
    identity.  A memo keyed by the deformation returned the first
    context's zero to the second."""
    ctx2 = make_ctx(flavor, order=3, d=2)
    ctx3 = JetContext(ctx2.dfa, flavor, 3)
    lam = xi_functional(ctx2, 1).add(coordinate_functional(ctx2, 0))
    keys = [(gamma, alpha) for gamma in ((0, 0), (1, 0), (0, 1))
            for alpha in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))]
    missed = 0
    for key in keys:
        v2, v3 = pair_basis(ctx2, lam, key), pair_basis(ctx3, lam, key)
        assert (v2.val, v2.top, v2.coeffs) == (v3.val, v3.top, v3.coeffs)
        assert (v2 is ctx2.zero_value()) == (v3 is ctx3.zero_value())
        missed += v3 is ctx3.zero_value()
    assert missed and ctx2.zero_value() is not ctx3.zero_value()


def _reachable(obj):
    """Every object reachable from obj, not entering classes, modules or
    functions."""
    seen, stack = {}, [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(
                x, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(x)] = x
        stack.extend(gc.get_referents(x))
    return list(seen.values())


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_mono_memoises_only_impure_keys(flavor):
    """A pure basis monomial e^alpha pairs as a read of the functional's
    own table (``jets._pair_leg``), so after dual products on each context
    of the worked example no key of a functional's ``_pair_mono`` memo is
    pure, while the impure keys its partner pairs are kept there."""
    bundle = build_axb(4, 4)
    ctx = bundle.left if flavor == LEFT else bundle.right
    lam = xi_functional(ctx, 0).add(coordinate_functional(ctx, 1))
    mu = xi_functional(ctx, 1)
    jet_product(ctx, lam, mu)
    jet_product(ctx, mu, lam)
    keys = [key for f in (lam, mu) for key in f._memos["_pair_mono"]]
    assert keys and all(c is ctx and any(gamma) for c, (gamma, _) in keys)


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_pair_cache_holds_only_pairings(flavor):
    """After a tabulated product and a direct evaluation, the memos on lam
    map (context, paired lift leg, True) to the mapped image and its
    product rows (``_image``), and those of its partner map (context,
    impure basis monomial) to a pairing (``_pair_mono``); nothing in lam's
    memos refers to the partner functional, which they would keep
    alive."""
    ctx = make_ctx(flavor, order=3, d=2)
    spec = ctx.spec
    lam = xi_functional(ctx, 0).add(coordinate_functional(ctx, 1))
    mu = xi_functional(ctx, 1)
    jet_product(ctx, lam, mu)
    jet_product_eval(ctx, lam, mu, (1, 1))

    def assert_leg_key(ckey):
        assert len(ckey) == 2 and ckey[0] is ctx
        assert isinstance(ckey[1], tuple) and len(ckey[1]) == 2
        gamma, alpha = ckey[1]
        assert len(gamma) == spec.nvars and len(alpha) == spec.rank
        assert all(isinstance(t, int) for t in gamma + alpha)

    assert set(lam._memos) <= {"_pair_mono", "_image"}
    pairings, images = mu._memos["_pair_mono"], lam._memos["_image"]
    assert pairings
    for ckey, val in pairings.items():
        assert_leg_key(ckey)
        assert any(ckey[1][0])
        assert isinstance(val, HLaurent)
    assert any(W is not None and rows for W, rows in images.values())
    for ckey, (W, rows) in images.items():
        # a dual product's images are keyed as lift images
        assert len(ckey) == 3 and ckey[2] is True
        assert_leg_key(ckey[:2])
        if W is None:
            assert not rows
            continue
        assert isinstance(W, HLaurent)
        assert all(isinstance(w, EnvElement) for w in W.coeffs)
        for other, (built, support) in rows.items():
            assert isinstance(other, tuple) and len(other) == 2
            assert all(isinstance(q, int) and num and type(den) is int
                       for q, num, den in built)
            # the support is None (an impure term) or PBW indices, each once
            if support is None:
                continue
            assert isinstance(support, tuple)
            assert len(set(support)) == len(support)
            assert all(isinstance(a, tuple) and len(a) == spec.rank
                       and all(isinstance(t, int) for t in a)
                       for a in support)
    partner = {id(mu), id(mu.table), id(mu._memos)} | {
        id(table) for table in mu._memos.values()}
    assert not any(id(x) in partner for x in _reachable(lam._memos))


def test_product_table_left_dual():
    ctx = make_ctx(LEFT)
    de1 = xi_functional(ctx, 0)
    de2 = xi_functional(ctx, 1)
    prod = jet_product(ctx, de1, de2)
    half = Fraction(1, 2)
    one = CPoly.one(2)
    # the displayed case table, a, b <= 3
    for a in range(4):
        for b in range(4):
            v = jet_product_eval(ctx, de1, de2, (a, b))
            if a >= 2 or b >= 2:
                assert_val(v, {})
            elif (a, b) == (1, 1):
                assert_val(v, {0: one})
            elif (a, b) == (1, 0):
                assert_val(v, {1: one * (-half)})
            elif (a, b) == (0, 1):
                assert_val(v, {})
            else:
                assert_val(v, {})
    rev = jet_product(ctx, de2, de1)
    assert_val(jet_product_eval(ctx, de2, de1, (1, 0)), {1: one * half})
    # commutator = -h de1
    comm = prod.sub(rev)
    want = de1.shift(1).neg()
    assert jets_equal(ctx, comm, want)


def test_product_table_right_dual():
    ctx = make_ctx(RIGHT)
    de1 = xi_functional(ctx, 0)
    de2 = xi_functional(ctx, 1)
    one = CPoly.one(2)
    assert_val(jet_product_eval(ctx, de1, de2, (1, 0)), {1: one * Fraction(1, 2)})
    comm = jet_product(ctx, de1, de2).sub(jet_product(ctx, de2, de1))
    assert jets_equal(ctx, comm, de1.shift(1))


def test_undeformed_right_dual_product():
    spec = LieRinehartSpec(0, 2, {}, None)  # abelian rank 2 over Q
    ctx = make_trivial_ctx(RIGHT, spec=spec, order=2, d=4)
    xi1, xi2 = xi_functional(ctx, 0), xi_functional(ctx, 1)
    e12 = pbw_mul(spec, EnvElement.gen(0, 2, 0), EnvElement.gen(0, 2, 1))
    v = pair_element(ctx, jet_product(ctx, xi1, xi2), e12)
    assert_val(v, {0: CPoly.one(0)})


def test_source_target_left_dual():
    ctx = make_ctx(LEFT)
    one = CPoly.one(2)
    for i in (0, 1):
        xi = CPoly.var(2, i)
        src, tgt = jet_source_target(ctx, xi)
        e_i = coordinate_functional(ctx, i)
        de_i = xi_functional(ctx, i)
        assert jets_equal(ctx, src, e_i)
        assert jets_equal(ctx, tgt, e_i.add(de_i))   # e_i + h * h^-1 de_i


def test_source_target_right_dual():
    ctx = make_ctx(RIGHT)
    for i in (0, 1):
        xi = CPoly.var(2, i)
        src, tgt = jet_source_target(ctx, xi)
        e_i = coordinate_functional(ctx, i)
        de_i = xi_functional(ctx, i)
        assert jets_equal(ctx, tgt, e_i)
        assert jets_equal(ctx, src, e_i.add(de_i))


def test_counit_values():
    ctx = make_ctx(LEFT)
    de1 = xi_functional(ctx, 0)
    e1 = coordinate_functional(ctx, 0)
    assert jet_counit(ctx, de1).is_zero()
    assert_val(jet_counit(ctx, e1), {0: CPoly.var(2, 0)})


def test_coproduct_tables_left():
    ctx = make_ctx(LEFT, order=3, d=3)
    eps = unit_functional(ctx)
    for i in (0, 1):
        e_i = coordinate_functional(ctx, i)
        T = jet_coproduct_functional(ctx, e_i)
        W = tensor_functional_from_pair(ctx, eps, e_i)
        assert tensor_tables_equal(ctx, T, W)
        # and it differs from e_i (x) 1
        W2 = tensor_functional_from_pair(ctx, e_i, eps)
        assert not tensor_tables_equal(ctx, T, W2)


def test_coproduct_tables_right():
    ctx = make_ctx(RIGHT, order=3, d=3)
    eps = unit_functional(ctx)
    for i in (0, 1):
        e_i = coordinate_functional(ctx, i)
        T = jet_coproduct_functional(ctx, e_i)
        W = tensor_functional_from_pair(ctx, e_i, eps)
        assert tensor_tables_equal(ctx, T, W)


def test_coproduct_primitive_xi_check():
    for flavor in (LEFT, RIGHT):
        ctx = make_ctx(flavor, order=3, d=3)
        eps = unit_functional(ctx)
        for i in (0, 1):
            dcheck = xi_functional(ctx, i).shift(-1)
            T = jet_coproduct_functional(ctx, dcheck)
            W1 = tensor_functional_from_pair(ctx, dcheck, eps)
            W2 = tensor_functional_from_pair(ctx, eps, dcheck)
            merged = dict(W1)
            for k, v in W2.items():
                merged[k] = merged[k] + v if k in merged else v
            assert tensor_tables_equal(ctx, T, merged)


def test_flavor_mismatch():
    ctx = make_ctx(LEFT, order=2, d=2)
    ctx2 = make_ctx(RIGHT, order=2, d=2)
    with pytest.raises(FlavorError):
        jet_product(ctx, xi_functional(ctx, 0), xi_functional(ctx2, 1))
    # a product that would be zero raises too, before the context's
    # transpose or the functional's rows are built
    lam, mu = JetElement(LEFT), JetElement(RIGHT)
    for a, b in ((lam, mu), (mu, lam)):
        with pytest.raises(FlavorError):
            jet_product(ctx, a, b)
        with pytest.raises(FlavorError):
            jet_product_eval(ctx, a, b, (1, 1))
    assert not ctx._memos and not lam._memos and not mu._memos
    # a tensor functional of a pair raises when its functionals differ in
    # flavor from each other or from the context, and the coproduct
    # functional when its functional differs from the context, before any
    # pairing, image or entry is kept
    right = JetElement(RIGHT, xi_functional(ctx2, 0).table)
    left = JetElement(LEFT, xi_functional(ctx, 1).table)
    for c, a, b in ((ctx, left, right), (ctx, right, left),
                    (ctx, right, right), (ctx2, left, left),
                    (ctx2, left, right)):
        with pytest.raises(FlavorError):
            tensor_functional_from_pair(c, a, b)
    for c, a in ((ctx, right), (ctx2, left)):
        with pytest.raises(FlavorError):
            jet_coproduct_functional(c, a)
    for f in (left, right):
        assert not f._memos
    assert not ctx._memos and not ctx2._memos


def test_products_of_the_other_flavor_raise():
    """The paired leg of a dual product is the context's (u_(2) on the
    left, u_(1) on the right), so functionals of the other flavor are
    refused, as the coproduct functional refuses them.  Read through the
    left context, the product of the right duals xi_1 xi_2 on axb paired
    the wrong leg: the table came out empty and the evaluation at e1 e2
    gave 1, where the right context tabulates (1, 0) and (1, 1)."""
    from qgroupoid.axb import build_axb
    b = build_axb(3, 3)
    xi0, xi1 = xi_functional(b.right, 0), xi_functional(b.right, 1)
    assert set(jet_product(b.right, xi0, xi1).table) == {(1, 0), (1, 1)}
    with pytest.raises(FlavorError):
        jet_product(b.left, xi0, xi1)
    with pytest.raises(FlavorError):
        jet_product_eval(b.left, xi0, xi1, (1, 1))
    assert not b.left._memos


def test_axiom_suite_undeformed():
    ctx = make_trivial_ctx(LEFT, order=2, d=3)
    rep = jet_axiom_suite(ctx, sample_degree=2)
    assert rep.ok(), rep.first_failure()


def test_axiom_suite_deformed_left():
    ctx = make_ctx(LEFT, order=3, d=3)
    u1 = defelem_from_env(ctx.spec, EnvElement.gen(2, 2, 0), 3).shift(1)
    rep = jet_axiom_suite(ctx, sample_degree=2, witnesses=[u1])
    assert rep.ok(), rep.first_failure()


def test_axiom_suite_deformed_right():
    ctx = make_ctx(RIGHT, order=3, d=3)
    rep = jet_axiom_suite(ctx, sample_degree=2)
    assert rep.ok(), rep.first_failure()


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
def test_axiom_suite_tabulates_checked_products_at_the_sample_degree(
        flavor, monkeypatch):
    """The action, commutativity and classical-limit checks read their
    products only up to min(jet degree, sample degree) and tabulate them
    there: 6 source actions and 9 sample products on der2, the classical
    limit reading the sample products against its closed form.  Only the
    6 dual-unit products, compared whole, take the jet degree."""
    ctx = make_ctx(flavor, order=3, d=2)
    real = jets.jet_product
    degrees = []

    def jet_product(ctx, lam, mu, degree=None):
        degrees.append(degree)
        return real(ctx, lam, mu, degree)

    monkeypatch.setattr(jets, "jet_product", jet_product)
    rep = jet_axiom_suite(ctx, sample_degree=1)
    assert rep.ok(), rep.first_failure()
    assert degrees.count(None) == 6
    assert degrees.count(1) == 6 + 9


@pytest.mark.parametrize("flavor", [LEFT, RIGHT])
@pytest.mark.parametrize("jet_degree,degree", [(4, 2), (2, 3)])
def test_evaluation_iso_undeformed(flavor, jet_degree, degree):
    """The xi-powers are tabulated at the checked degree, so checking above
    the context's jet degree reads no zeros past the table."""
    ctx = make_trivial_ctx(flavor, order=2, d=jet_degree)
    assert evaluation_iso_check(ctx, degree)


def test_opcoop_flavor_duality_on_generators():
    """The dual product transported through the op/coop transform.

    In the transformed context (reversed multiplication and base, flipped
    coproduct legs, source and target roles exchanged) only one
    transcription of the left-dual product formula is well defined on the
    tensor-relation classes: the one that reverses the operands of the
    right-dual product.  Pin that orientation on the standard generators.
    """
    ctxR = make_ctx(RIGHT, order=3, d=3)
    spec = ctxR.spec

    def leftdual_product_via_opcoop(lam, mu, beta):
        # transformed context: legs of the coproduct lift are flipped and
        # the tensor relation moves s_F across; the well-defined product
        # reads lam( s_F(mu(v2)) . v1 ) on the flipped legs (v1, v2).
        from qgroupoid.jets import _apply_series_map
        lift = ctxR.dfa.lift_mono(((0, 0), beta))
        out = None
        for k, Tk in enumerate(lift.coeffs):
            for key, c in Tk.terms.items():
                v1, v2 = key[1], key[0]   # flipped legs
                v = pair_basis(ctxR, mu, v2)
                if v.is_zero():
                    continue
                W = _apply_series_map(ctxR, v, ctxR.dfa.source)
                other = EnvElement.monomial(2, 2, v1[1], CPoly.monomial(2, v1[0]))
                W = W.map(lambda t: pbw_mul(spec, t, other))
                piece = pair_laurent(ctxR, lam, W).shift(k).map(lambda t: t * c)
                out = piece if out is None else out + piece
        return out if out is not None else ctxR.zero_value()

    pairs = [(xi_functional(ctxR, 0), xi_functional(ctxR, 1)),
             (xi_functional(ctxR, 1), xi_functional(ctxR, 0)),
             (xi_functional(ctxR, 0), coordinate_functional(ctxR, 1)),
             (coordinate_functional(ctxR, 1), xi_functional(ctxR, 0))]
    for lam, mu in pairs:
        for beta in ((1, 0), (0, 1), (1, 1), (0, 0)):
            reversed_direct = jet_product_eval(ctxR, mu, lam, beta)
            via = leftdual_product_via_opcoop(lam, mu, beta)
            assert reversed_direct.eq_to_order(via), (beta, reversed_direct, via)


def test_product_values_are_lift_independent():
    """The dual product may be evaluated on any lifted representative of
    the coproduct; the canonical reduced lift must give the same values as
    the raw one (the well-definedness of the transpose formulas)."""
    from qgroupoid.deform import reduce_series
    from qgroupoid.jets import _apply_series_map
    ctx = make_ctx(LEFT, order=3, d=3)
    spec = ctx.spec
    de1, de2 = xi_functional(ctx, 0), xi_functional(ctx, 1)
    e2 = coordinate_functional(ctx, 1)

    def eval_over(lam, mu, lift):
        out = None
        for k, Tk in enumerate(lift.coeffs):
            for key, c in Tk.terms.items():
                w1, w2 = key
                v = pair_basis(ctx, lam, w2)
                if v.is_zero():
                    continue
                W = _apply_series_map(ctx, v, ctx.dfa.target)
                other = EnvElement.monomial(2, 2, w1[1], CPoly.monomial(2, w1[0]))
                W = W.map(lambda t: pbw_mul(spec, t, other))
                piece = pair_laurent(ctx, mu, W).shift(k).map(lambda t: t * c)
                out = piece if out is None else out + piece
        return out if out is not None else ctx.zero_value()

    for beta in [(a, b) for a in range(3) for b in range(3)]:
        raw = ctx.dfa.lift_mono(((0, 0), beta))
        red = reduce_series(ctx.dfa, raw)
        for lam, mu in ((de1, de2), (de2, de1), (de1, e2), (e2, de1)):
            assert eval_over(lam, mu, raw).eq_to_order(eval_over(lam, mu, red))


def test_coproduct_decomposition():
    """Exact splitting of the transposed coproduct against divided
    generator powers; the solver verifies the re-weave internally, so
    convergence plus leg inspection pins the structure."""
    for flavor in (LEFT, RIGHT):
        ctx = make_ctx(flavor, order=3, d=3)
        for i in (0, 1):
            e_i = coordinate_functional(ctx, i)
            dec = jet_coproduct_decompose(ctx, e_i, degree=2)
            if flavor == RIGHT:
                # Delta(e_i) = e_i (x) 1: a single unit right leg whose
                # left counterpart is e_i itself
                assert sorted(dec) == [(0, 0)]
                assert jets_equal(ctx, dec[(0, 0)], e_i)
            else:
                gen_leg = (1, 0) if i == 0 else (0, 1)
                assert sorted(dec) == sorted([(0, 0), gen_leg])
            dv = xi_functional(ctx, i).shift(-1)
            dec2 = jet_coproduct_decompose(ctx, dv, degree=2)
            gen_leg = (1, 0) if i == 0 else (0, 1)
            assert gen_leg in dec2 and (0, 0) in dec2


def test_zero_value_is_one_shared_instance_that_never_changes():
    ctx = make_ctx(LEFT)
    n = ctx.order
    zero = ctx.zero_value()
    assert ctx.zero_value() is zero
    x1, x2 = xi_functional(ctx, 0), xi_functional(ctx, 1)
    jet_product(ctx, x1, x2)
    jets.jet_commutator(ctx, x1, x2)
    # a key missing from the table reads the shared zero
    assert x1.value(ctx, (3, 3)) is zero
    assert (zero.val, zero.top, zero.coeffs) == (n + 1, n, ())
    assert zero.zero.is_zero() and zero.zero.terms == {}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("order", [2, 3])
def test_dualize_passes_on_the_polynomial_frame(tmp_path, order, side):
    """The Moyal twist written in a polynomial frame validates, so its
    duals satisfy their axioms.  At N = 2 and 3 ``dualize`` fails today:
    ``dual-associativity`` on both sides, and ``action-compatibility`` on
    the right."""
    spec = tmp_path / "polynomial.spec"
    spec.write_text(POLYNOMIAL_SPEC)
    code, out, _ = run_cli(["dualize", str(spec), "--h-order", str(order),
                            "--side", side, "--json-only"])
    failed = [line["check"] for line in parse_lines(out)
              if line.get("status") == "fail"]
    assert code == 0 and not failed, failed


def _axb_dfa(order):
    with open(SPEC) as fh:
        return _spec_dfa(fh.read(), order)


# name: the deformation at truncation N
TRUNCATION_BUILDS = {
    "axb": _axb_dfa,
    "bracket(a=2)": lambda order: _spec_dfa(_bracket_spec_text(2), order),
    "polynomial": lambda order: _spec_dfa(POLYNOMIAL_SPEC, order),
}
TRUNCATION_BUILDS.update(
    ("gen%d" % i, functools.partial(generated_dfa, i)) for i in range(GENERATED))
WRONG_WINDOW = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: a lam-zero lift term leaves the "
    "window above the truncation")


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name,order", [
    ("axb", 2), ("axb", 3), ("axb", 4), ("axb", 6), ("bracket(a=2)", 2)]
    + [("gen%d" % i, n) for i in range(GENERATED) for n in (2, 3)] + [
    pytest.param("polynomial", 1, marks=WRONG_WINDOW),
    pytest.param("polynomial", 3, marks=WRONG_WINDOW)])
def test_dual_products_claim_no_coefficient_a_longer_run_contradicts(
        name, order, side):
    """Each value of ``jet_product`` and ``jet_product_eval`` on two of the
    xi_i and coordinate functionals, jet degree 3, agrees with the same
    value at truncation N + 2 on every order of its window.  On the
    polynomial frame, at N = 1 xi1 xi1 at (0, 1) claims h^2, and at N = 3
    at (0, 2) and (0, 3) it claims h^4, wrongly; its N = 2 and 4 pass and
    are left out for their cost (1.4 and 4.2 s for both sides)."""
    assert truncation_mismatches(TRUNCATION_BUILDS[name], order, side) == []


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name,order", [
    ("axb", 2), ("axb", 3), ("axb", 4), ("bracket(a=2)", 2)]
    + [("gen%d" % i, 2) for i in range(GENERATED)]
    + [("polynomial", n) for n in (1, 2, 3)])
def test_pairings_and_functional_tables_claim_no_coefficient_a_longer_run_contradicts(
        name, order, side):
    """``jet_pair`` on the augmentation products of ``drinfeld`` (n <= 2),
    and the tables of ``jet_coproduct_functional``,
    ``tensor_functional_from_pair`` and ``jet_source_target``, on the xi_i,
    the coordinate functionals, the unit and the rescaled h^-1 xi_i, jet
    degree 3, agree with the same values at truncation N + 2 on every
    order of their windows (``oracles.functional_mismatches``)."""
    assert functional_mismatches(TRUNCATION_BUILDS[name], order, side) == []


# axb at N = 2, 3, 4 and the bracketed and generated structures at N = 2;
# on the polynomial frame N = 1 fails, for the reasons given on each test
SLICE_CASES = [("axb", 2), ("axb", 3), ("axb", 4), ("bracket(a=2)", 2)] \
    + [("gen%d" % i, 2) for i in range(GENERATED)]


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name,order", SLICE_CASES + [pytest.param(
    "polynomial", 1, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the pairing of a first "
        "pairing W that starts at h^1 claims h^(N+1), above W's top N"))])
def test_pair_image_claims_no_coefficient_a_longer_run_contradicts(
        name, order, side):
    """``jets._pair_image`` on its own, on entries of ``_image`` (lift and
    tensor functional) and of ``_monomial`` with both values of
    ``right``, jet degree 2 (``oracles.pair_image_values``), agrees with
    the same values at truncation N + 2 on every order of their windows.
    On the polynomial frame xi_1 on x1 is zero at h^0, so the lift entry
    W = t_F(xi_1(x1)) starts at h^1 with top N, and every pairing of its
    rows claims N + 1: at N = 1, xi_1(W . 1) claims 1/2 x1^3 at h^2, where
    the run at N = 3 gives x1^3."""
    assert truncation_mismatches(TRUNCATION_BUILDS[name], order, side, 2,
                                 pair_image_values) == []


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("name,order", SLICE_CASES + [
    pytest.param("polynomial", 1, marks=WRONG_WINDOW)])
def test_rescaled_functionals_claim_no_coefficient_a_longer_run_contradicts(
        name, order, side):
    """``drinfeld``'s h-rescaled functionals, jet degree 2: the products of
    two generators h^-1 xi_i of ``VeeAlgebroid`` and the pairings of the
    generators, of those products and of the divided xi-powers with the
    members of ``hprime_basis`` (``oracles.rescaled_values``), agree with
    the same values at truncation N + 2 on every order of their windows.
    On the polynomial frame at N = 1 the product of h^-1 xi_1 with itself
    at (0, 1) claims h^0, the rescaled image of the h^2 that xi_1 xi_1
    claims there wrongly (the polynomial case of the dual products'
    test above)."""
    assert truncation_mismatches(TRUNCATION_BUILDS[name], order, side, 2,
                                 rescaled_values) == []
