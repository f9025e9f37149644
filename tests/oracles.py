"""Test-only oracles and test data, kept out of the engine.

No command of the CLI calls these; the tests compare the engine with them.

- ``reexpand`` inverts ``deform.basis_decompose``: it maps each coefficient
  series through ``DeformedEnvAlgebroid.source_series``/``target_series``
  and multiplies by e^beta, so a decomposition must re-expand to its input.
- ``conjugate_legs`` is G . S . F for a tensor series S of any width with F
  and G at two adjacent legs, multiplied by the general product loop
  ``mul_into_legs`` (the oracle of ``tensorspace``'s 2- and 3-leg loop
  nests).  ``conjugated_lift`` conjugates Delta(x^gamma e^alpha) whole,
  where ``DeformedEnvAlgebroid.lift_mono`` multiplies the lifts of its
  factors, and ``spliced_coproduct_leg`` conjugates the spliced series,
  where ``deform.deformed_coproduct_leg`` splices cached lifts.
- ``sweep_base_map`` is s_F(a) or t_F(a) swept term by term over the
  twistor for the whole polynomial a, where the deformation reads the
  twistor's table of monomial images; ``direct_star_coeffs`` is a *_F b as
  s_F(a) acting on b, where ``star_coeffs`` sums a table of monomial pairs.
- ``decomposed_pair_mono`` pairs a functional with a basis monomial
  through its whole decomposition, where ``jets._pair_mono`` first asks
  the functional's table whether any key can meet it;
  ``impure_leg_product`` names the keys it must always decompose.
- ``scan_misses_table`` scans the leg table for every pairing, where
  ``jets._misses`` reads the one support rule, ``jets._support``, which
  for an impure monomial is the deformation's pairing support.
- ``source_target_loop``, ``coproduct_functional_loop`` and
  ``from_pair_loop`` build on every call what ``jets.jet_source_target``,
  ``jets.jet_coproduct_functional`` and ``jets.tensor_functional_from_pair``
  keep on the context or in the first functional's images
  (``jets._image``), and pair every entry and row that those skip by
  their support.
- ``tensor_reduce_loop`` is the one reduction loop for every width, which
  reads each leg's gamma off its monomial and keeps a per-call memo of the
  shifts, where ``tensorspace.tensor_reduce`` has fixed 2- and 3-leg
  loops, reads the gamma from ``envelope.GAMMA`` and interns each shift
  once per process.
- ``gathered_jet_product`` evaluates a dual product on every PBW index
  through the grouped lift, pairing every factor, where
  ``jets.jet_product`` transposes the lift, marks the indices a nonzero
  factor reaches, skips factors whose support misses the partner's table
  (``jets._pair_image``) and evaluates only the marked indices.
- ``pair_rows_loop`` is the pairing of {alpha: {gamma: c}} rows that adds
  every term's pairing, where ``jets._pair_rows`` skips the shared zero and
  returns a lone unit term's pairing shifted.
- ``evaluation_iso_check`` checks the jet pairing (``jets._pair_env`` and
  the paired products of ``jets._pair_entry``) against the divided
  xi-powers ``jets.divided_xi_powers``: a Kronecker pairing matrix and the
  convolution identity at h^0, on undeformed contexts.
- ``jet_coproduct_decompose`` splits the transposed coproduct
  (``jets.jet_coproduct_functional``) against the divided xi-powers and
  re-weaves it through ``jets.tensor_functional_from_pair``.
- ``poisson_from_pair`` is the Poisson bracket of a Lie bialgebroid read off
  ``lierinehart.cobracket_from_dual_spec``; at order h it must equal the
  star commutator that ``drinfeld.semiclassical_cobracket`` certifies.
- ``random_valid_specs`` and ``jacobi_violating_spec`` are inputs for
  ``properties.structure_property_suite``, the suite behind ``validate``:
  structures whose axioms hold by construction, and one that breaks Jacobi.
"""

import itertools
import random
from fractions import Fraction
from operator import add

from qgroupoid.envelope import (
    LEGS, PURE, EnvElement, _acc_rows, _act_into, _mul_mono_into,
    _rows_series, anchor_action, leg_id, leg_product, shift_id,
)
from qgroupoid.errors import FlavorError, TruncationInsufficientError
from qgroupoid.jets import (
    LEFT, JetElement, _apply_series_map, _base_image, _index_pairs,
    _pair_entry, _pair_env, _pair_mono, _pair_product, _pair_rows,
    _product_rows, _tabulate, divided_xi_powers,
    jet_coproduct_functional, table_sum, tensor_functional_from_pair,
    tensor_tables_equal,
)
from qgroupoid.lierinehart import LieRinehartSpec, cobracket_from_dual_spec
from qgroupoid.scalars import CPoly, pbw_indices
from qgroupoid.series import (
    HLaurent, HSeries, LaurentSum, hs_const, hseries_mul,
)
from qgroupoid.tensorspace import (
    TensorElement, _tensor, _tensor_cleared, _unit_id, copro_basis,
    tensor_coproduct_leg,
)


# -- deformations ---------------------------------------------------------------


def reexpand(dfa, decomposition, flavor="source"):
    """Inverse of basis_decompose, for round-trip checks: sum_beta
    map_F(a_beta) e^beta, one row per order."""
    spec = dfa.spec
    zeros = (0,) * spec.nvars
    rows = [{} for _ in range(dfa.order + 1)]
    mapper = dfa.source_series if flavor == "source" else dfa.target_series
    for beta, aser in decomposition.items():
        for acc, w in zip(rows, mapper(aser).coeffs):
            _mul_mono_into(acc, spec, w, (zeros, beta))
    return _rows_series(spec, dfa.order, rows)


def sweep_base_map(spec, twistor, a, leg):
    """s_F(a) (leg 0) or t_F(a) (leg 1), term by term: the legs ``leg`` of
    F act on a, the other legs multiply: c x^g e^b (x) x^gamma e^alpha
    (acting leg first) adds c x^(g + gamma) (e^b . a) e^alpha to the
    order's row."""
    rows = []
    for Fn in twistor.series.coeffs:
        acc = {}
        for key, c in Fn.terms.items():
            (g, b), (gamma, alpha) = key[leg], key[1 - leg]
            _act_into(acc.setdefault(alpha, {}), spec,
                      (tuple(map(add, g, gamma)), b), a, c)
        rows.append(acc)
    return _rows_series(spec, twistor.order, rows)


def direct_star_coeffs(dfa, a, b):
    """a *_F b as s_F(a) acting on b, s_F(a) swept for the whole a."""
    return [anchor_action(dfa.spec, u, b)
            for u in sweep_base_map(dfa.spec, dfa.twistor, a, 0).coeffs]


def tensor_mul_legs(spec, s, t):
    """``tensor_mul`` for any number of legs, by the general loop."""
    s._check(t)
    return _tensor_cleared(s.nvars, s.rank, s.legs,
                           mul_into_legs({}, spec, s, t, 1), s.den * t.den)


def conjugate_legs(dfa, S, leg):
    """G . S . F for a tensor series S, with F and G at legs leg, leg+1.

    An exponential twistor F = exp(h r) takes the Hadamard expansion
    G . Y . F = sum_m h^m/m! ad_{-r}^m(Y), ad_{-r}(Y) = Y r - r Y; other
    twistors take the two Cauchy products.  Every product is the general
    loop ``mul_into_legs``."""
    spec = dfa.spec
    legs = S.zero.legs

    def mt(a, b):
        return tensor_mul_legs(spec, a, b)

    r = dfa.twistor.exponent
    if r is None:
        G = dfa.G.map(lambda t: t.embed(legs, leg))
        F = dfa.twistor.series.map(lambda t: t.embed(legs, leg))
        return hseries_mul(G, hseries_mul(S, F, mt), mt)
    r = r.embed(legs, leg)
    out = list(S.coeffs)
    for k, Y in enumerate(S.coeffs):
        for m in range(1, dfa.order - k + 1):
            if Y.is_zero():
                break
            Y = (mt(Y, r) - mt(r, Y)).scale(Fraction(1, m))
            out[k + m] = out[k + m] + Y
    return HSeries(dfa.order, out, S.zero)


def conjugated_lift(dfa, key):
    """G . Delta(x^gamma e^alpha) . F, the coproduct conjugated whole."""
    spec = dfa.spec
    zero = TensorElement.zero(spec.nvars, spec.rank, 2)
    return conjugate_legs(
        dfa, hs_const(copro_basis(spec, leg_id(key)), dfa.order, zero), 0)


def spliced_coproduct_leg(dfa, HT, leg):
    """The twisted coproduct at leg ``leg`` of a lifted tensor series: the
    classical coproduct spliced into the leg, then conjugated by F and G
    at that leg and the next."""
    spliced = HT.map(lambda t: tensor_coproduct_leg(dfa.spec, t, leg))
    return conjugate_legs(dfa, spliced, leg)


# -- tensor products ---------------------------------------------------------------


def leg_table_entries(spec):
    """The structure's nested product table as {(ia, ib): entry}."""
    return {(ia, ib): entry for ia, row in spec._leg_table.items()
            for ib, entry in row.items()}


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
            c = ca * cb
            factors = []
            single = True
            for la, lb in zip(ka, kb):
                if la == unit:
                    factors.append(((lb, 1),))
                elif lb == unit:
                    factors.append(((la, 1),))
                else:
                    f = table[la].get(lb)
                    if f is None:
                        f = leg_product(spec, la, lb)
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
            key = tuple(key)
            cur = out.get(key)
            v = c if cur is None else cur + c
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def tensor_reduce_loop(spec, T):
    """``tensorspace.tensor_reduce`` as one loop for every width: each
    earlier leg becomes its pure id, the gammas of the others are summed
    and shift the last leg, each (last id, total gamma) interned once per
    call."""
    out = {}
    shifted = {}
    for key, c in T.num.items():
        total = None
        newkey = []
        for i in key[:-1]:
            p = PURE[i]
            if p != i:
                g = LEGS[i][0]
                total = g if total is None else tuple(map(add, total, g))
            newkey.append(p)
        last = key[-1]
        if total is not None:
            sk = (last, total)
            last = shifted.get(sk)
            if last is None:
                last = shifted[sk] = shift_id(*sk)
        newkey.append(last)
        kk = tuple(newkey)
        cur = out.get(kk)
        s = c if cur is None else cur + c
        if s:
            out[kk] = s
        else:
            del out[kk]
    return _tensor(T.nvars, T.rank, T.legs, out, T.den)


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
        cur = out.get(key)
        s = c if cur is None else cur + c
        if s:
            out[key] = s
        else:
            del out[key]


# -- jet duals ---------------------------------------------------------------------


def decomposed_pair_mono(ctx, lam, key):
    """``jets._pair_mono`` without its table test and its memo: lam on
    x^gamma e^alpha as the star pairings over the whole flavor
    decomposition, built for every gamma != 0, and the shared zero when
    that sum is the empty window up to the truncation order."""
    gamma, alpha = key
    if not any(gamma):
        return lam.value(ctx, alpha)
    left = lam.flavor == LEFT
    dec = ctx.dfa.decompose_mono(key, "source" if left else "target")
    acc = LaurentSum(ctx.zero_poly(), ctx.order)
    for beta, aser in dec.items():
        lv = lam.value(ctx, beta)
        if lv.is_zero():
            continue
        al = HLaurent.from_hseries(aser)
        if left:
            acc.add_product(al, lv, ctx.dfa.star_coeffs, ctx.order)
        else:
            acc.add_product(lv, al, ctx.dfa.star_coeffs, ctx.order)
    out = acc.value()
    if not out.coeffs and out.top == ctx.order:
        out = ctx.zero_value()
    return out


def scan_misses_table(ctx, lam, gamma, alpha, flavor):
    """``jets._misses`` of the ``jets._support`` of the one monomial
    x^gamma e^alpha, gamma != 0, as a scan of the leg table: True when every
    term of every e^beta e^alpha, e^beta over the flavor decomposition of
    x^gamma, is a pure q e^delta with delta not a key of lam's table."""
    spec, table = ctx.spec, lam.table
    a = leg_id(((0,) * spec.nvars, alpha))
    for b in ctx.dfa.base_legs(gamma, flavor):
        for i, _ in leg_product(spec, b, a):
            g, delta = LEGS[i]
            if delta in table or any(g):
                return False
    return True


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


def pair_rows_loop(ctx, lam, rows, top):
    """``jets._pair_rows`` without its shortcuts: every term's pairing, the
    shared zero included, added into one ``LaurentSum`` that starts from
    zero up to N + (the first q with a term); zero up to ``top`` when no
    row has a term."""
    acc = None
    for q, row in rows:
        if not row:
            continue
        if acc is None:
            acc = LaurentSum(ctx.zero_poly(), ctx.order + q)
        for alpha, terms in row.items():
            for gamma, c in terms.items():
                acc.add(_pair_mono(ctx, lam, (gamma, alpha)), c, q)
    if acc is None:
        return HLaurent.zero_upto(top, ctx.zero_poly())
    return acc.value()


def gathered_jet_product(ctx, lam, mu, degree=None, images=None):
    """``jets.jet_product`` as the gather it replaced: every PBW index up to
    the degree (the jet degree by default) is evaluated on its lift grouped
    by the paired leg (``lift_legs``), zeros left out (``jets._tabulate``).
    Each factor mu(W . other) is paired through ``jets._pair_rows`` once
    per tabulation, without a support test, and the terms c h^k P are
    summed as ``jets.jet_product_eval`` sums them.  ``images`` maps a
    paired leg to (W, {other leg: rows of W . other}), or to (None, None)
    where lam vanishes on it; it depends on lam and the context alone, so
    a caller may pass one dict to every product with that lam."""
    if lam.flavor != mu.flavor:
        raise FlavorError("mixed dual flavors")
    spec = ctx.spec
    zeros = (0,) * spec.nvars
    left = lam.flavor == LEFT
    mapper = ctx.dfa.target if left else ctx.dfa.source
    images = {} if images is None else images
    factors = {}

    def value(beta):
        acc = LaurentSum(ctx.zero_poly())
        for paired, terms in ctx.dfa.lift_legs((zeros, beta), 1 if left else 0):
            if paired not in images:
                v = _pair_mono(ctx, lam, paired)
                images[paired] = (None, None) if v.is_zero() \
                    else (_apply_series_map(ctx, v, mapper), {})
            W, rows = images[paired]
            if W is None:
                continue
            for k, other, c in terms:
                P = factors.get((paired, other))
                if P is None:
                    r = rows.get(other)
                    if r is None:
                        r = rows[other] = _product_rows(spec, W, other)
                    P = factors[paired, other] = _pair_rows(ctx, mu, r, W.top)
                acc.add(P, c, k)
        return ctx.zero_value() if acc.top is None else acc.value()

    return JetElement(lam.flavor, _tabulate(ctx, value, degree))


def source_target_loop(ctx, a, degree=None):
    """``jets.jet_source_target`` built afresh on every call from the
    products themselves: the counits of each order of image . e^beta or
    e^beta . image, the former at beta = 0 alone, where
    ``jet_source_target`` reads the image's e^0 coefficient and the
    action table."""
    spec = ctx.spec
    zeros, unit = (0,) * spec.nvars, (0,) * spec.rank
    image = _base_image(ctx, a)

    def counit_table(mono_right):
        def value(beta):
            mono = (zeros, beta)
            return HLaurent(0, ctx.order, [
                CPoly(spec.nvars, _mul_mono_into(
                    {}, spec, w, mono, 1, mono_right).get(unit))
                for w in image.coeffs], ctx.zero_poly())
        if mono_right:
            v = value(unit)
            return JetElement(ctx.flavor, {} if v.is_zero() else {unit: v})
        return JetElement(ctx.flavor, _tabulate(ctx, value, degree))

    left = ctx.flavor == LEFT
    return counit_table(left), counit_table(not left)


def coproduct_functional_loop(ctx, lam, degree=None):
    """``jets.jet_coproduct_functional`` building and pairing every
    table entry e^b1 e^b2 (left) or e^b2 e^b1 (right) afresh."""
    degree = degree if degree is not None else ctx.jet_degree
    spec = ctx.spec
    zeros = (0,) * spec.nvars
    out = {}
    for b1, inner in _index_pairs(spec.rank, degree):
        for b2 in inner:
            la, lb = (b1, b2) if ctx.flavor == LEFT else (b2, b1)
            entry = leg_product(spec, leg_id((zeros, la)), leg_id((zeros, lb)))
            v = _pair_rows(ctx, lam, [(0, _acc_rows({}, entry, 1))],
                           ctx.order)
            if not v.is_zero():
                out[(b1, b2)] = v
    return out


def from_pair_loop(ctx, lam, mu, degree=None):
    """``jets.tensor_functional_from_pair`` with its first pairings and
    their images built once per call and every product row afresh."""
    degree = degree if degree is not None else ctx.jet_degree
    spec = ctx.spec
    zeros = (0,) * spec.nvars
    left = ctx.flavor == LEFT
    first, second = (lam, mu) if left else (mu, lam)
    mapper = ctx.dfa.source if left else ctx.dfa.target
    pairs = _index_pairs(spec.rank, degree)
    images = {}
    for beta, _ in pairs:
        v = _pair_env(ctx, first, EnvElement.monomial(
            spec.nvars, spec.rank, beta))
        images[beta] = None if v.is_zero() else \
            _apply_series_map(ctx, v, mapper)
    out = {}
    for b1, inner in pairs:
        for b2 in inner:
            paired, moved = (b2, b1) if left else (b1, b2)
            W = images[paired]
            if W is None:
                continue
            val = _pair_product(ctx, second, W, (zeros, moved), False)
            if not val.is_zero():
                out[(b1, b2)] = val
    return out


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
            val = _pair_env(ctx, powers[kappa], mono).coeff(0)
            want = CPoly.one(spec.nvars) if kappa == beta else CPoly.zero(spec.nvars)
            if val != want:
                return False
    zeros = (0,) * spec.nvars
    half = [b for b in idx if 2 * sum(b) <= degree]
    for b1 in half:
        for b2 in half:
            m1 = EnvElement.monomial(spec.nvars, spec.rank, b1)
            m2 = EnvElement.monomial(spec.nvars, spec.rank, b2)
            for kappa in idx:
                lhs = _pair_entry(ctx, powers[kappa], (zeros, b1),
                                  (zeros, b2)).coeff(0)
                rhs = CPoly.zero(spec.nvars)
                for k1 in idx:
                    k2 = tuple(a - b for a, b in zip(kappa, k1))
                    if any(t < 0 for t in k2):
                        continue
                    rhs = rhs + _pair_env(ctx, powers[k1], m1).coeff(0) \
                        * _pair_env(ctx, powers[k2], m2).coeff(0)
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


# -- structures for the property suite --------------------------------------------------


def random_valid_specs(seed, count=3):
    """Seeded valid structures from axiom-safe families."""
    rng = random.Random(seed)
    out = []
    makers = [_derivation_algebra, _solvable_rank2, _heisenberg,
              _polynomial_solvable, _split_anchor, _line_vector_fields]
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


def jacobi_violating_spec():
    one, zero = CPoly.one(0), CPoly.zero(0)
    table = {
        (0, 1): (zero, zero, one),
        (1, 2): (one, zero, zero),
        (0, 2): (one, zero, zero),
    }
    return LieRinehartSpec(0, 3, table, None, name="jacobi-violation")
