"""Drinfeld-style rescaling functors and semiclassical extraction.

The dual-side functor rescales the augmentation functionals by 1/h and
checks that all generator relations stay h-integral; the envelope-side
functor selects elements whose n-fold reduced coproducts are divisible by
h^n, built as one loop on leg ids: the element as a series of 1-leg
tensors, one twisted coproduct at leg 0 per n, and the projection of each
leg, both the splice of the classical coproduct (``tensorspace._splice``);
the projection's 1-leg pieces are memo entries of the deformation, one per
(leg id, flavor) (``_projection_pieces``).
Semiclassical limits read off the induced structure on the dual module
from order-h data: the cobracket from the order-h coproduct, and the vee
limit and the dual bracket by one reader of the same functional
commutators.  The roundtrip check composes the two functors and compares
generators and relations with the originals at truncation; on the
canonical functionals (``generators=None``) those two comparisons set the
functionals against themselves, so only its integrality and membership
checks carry information there.
"""

import itertools

from .deform import (
    defelem_from_env, defelem_mul, deformed_coproduct_leg, twisted_coproduct,
)
from .envelope import (
    LEGS, EnvElement, _combination, env_counit, memo, pbw_mul,
)
from .errors import (
    ConfigError, InvariantViolation, NonIntegralError,
    TruncationInsufficientError,
)
from .jets import (
    coordinate_functional, divided_xi_powers, jet_commutator,
    jet_coproduct_functional, jet_pair, jets_equal,
    tensor_functional_from_pair, unit_functional, xi_functional,
)
from .lierinehart import (
    LieRinehartSpec, lr_bialgebra_validate, lr_validate,
)
from .report import Report
from .scalars import CPoly, monomials_upto, pbw_indices
from .series import HSeries
from .tensorspace import (
    MAX_LEGS, TensorElement, _splice, _tensor, tensor_reduce,
)

__all__ = [
    "VeeAlgebroid", "vee_build", "vee_semiclassical", "hprime_member",
    "hprime_basis", "semiclassical_cobracket", "semiclassical_dual_bracket",
    "duality_roundtrip",
]


# -- the (.)^vee functor on jet contexts -----------------------------------------


class VeeAlgebroid:
    """Generators xi-check_i = h^-1 xi_i together with the base embeddings,
    and their computed relation table (all h-integral by construction)."""

    def __init__(self, jctx):
        self.jctx = jctx
        spec = jctx.spec
        self.gen_names = ["xv%d" % (i + 1) for i in range(spec.rank)]
        self.base_names = ["b%d" % (j + 1) for j in range(spec.nvars)]
        self.gens = {}
        for i, name in enumerate(self.gen_names):
            self.gens[name] = xi_functional(jctx, i).shift(-1)
        for j, name in enumerate(self.base_names):
            self.gens[name] = coordinate_functional(jctx, j)
        self.relations = {}

    def names(self):
        return self.gen_names + self.base_names


def _too_deep(comm):
    """The first (beta, valuation) at which a commutator of rescaled
    functionals lies below h^-|beta|, or None: a table entry at depth beta
    may carry at worst one inverse power of h per rescaled generator."""
    for beta, val in comm.table.items():
        norm = val.normalize()
        if norm.coeffs and norm.val < -sum(beta):
            return beta, norm.val
    return None


def vee_build(jctx, degree=None):
    """Construct the rescaled dual algebroid and its relation table.

    Every pairwise commutator must stay inside the rescaled algebra
    (``_too_deep``); anything deeper raises NonIntegralError naming the
    offending pair.
    """
    v = VeeAlgebroid(jctx)
    names = v.names()
    for ia, na in enumerate(names):
        for nb in names[ia + 1:]:
            comm = jet_commutator(jctx, v.gens[na], v.gens[nb], degree)
            deep = _too_deep(comm)
            if deep:
                raise NonIntegralError(
                    deep[1], "commutator [%s, %s] exceeds the rescaling depth "
                    "at %s" % (na, nb, deep[0]))
            v.relations[(na, nb)] = comm
    return v


def _first(witnesses):
    """The test of a one-case check over the witnesses a loop collected
    while it built data: the first of them, or None."""
    return witnesses[0] if witnesses else None


def _dual_structure(v, name, report):
    """The dual Lie-Rinehart structure read off the relation table of ``v``;
    its ``dual-structure-valid`` check goes into ``report``.

    c^k_ij is the h^-1 coefficient of [xv_i, xv_j] at e_k (the generators
    carry an h^-1 scale), and anchor(f_i)(x_j) the h^0 coefficient of
    [xv_i, b_j] at the unit.  Only these relations are read.
    """
    jctx = v.jctx
    m = jctx.spec.rank
    unit = (0,) * m
    dirs = [tuple(int(t == k) for t in range(m)) for k in range(m)]
    bracket = {}
    for i, na in enumerate(v.gen_names):
        for j in range(i + 1, m):
            comm = v.relations[(na, v.gen_names[j])]
            bracket[(i, j)] = [comm.value(jctx, e).coeff(-1) for e in dirs]
    anchor = [[v.relations[(na, nb)].value(jctx, unit).coeff(0)
               for nb in v.base_names] for na in v.gen_names]
    dual = LieRinehartSpec(jctx.spec.nvars, m, bracket, anchor, name=name)
    report.check("dual-structure-valid", [lr_validate(dual)],
                 Report.first_failure)
    return dual


def vee_semiclassical(v):
    """Read the order-zero structure off the relation table.

    Generator commutators give the dual bracket constants, generator-base
    commutators the dual anchor (``_dual_structure``); nothing below the
    generator scale may survive in a generator commutator, the result must
    validate and the generators must be primitive modulo h.
    """
    jctx = v.jctx
    report = Report("vee-semiclassical",
                    {"h_order": jctx.order, "flavor": jctx.flavor})

    below_scale = []
    for i, na in enumerate(v.gen_names):
        for nb in v.gen_names[i + 1:]:
            for val in v.relations[(na, nb)].table.values():
                norm = val.normalize()
                if norm.coeffs and norm.val < -1:
                    below_scale.append(
                        "relation [%s,%s] has terms below the generator scale"
                        % (na, nb))
                    break
    report.check("relations-at-generator-scale", [below_scale], _first)
    dual = _dual_structure(v, "dual-of-%s" % jctx.flavor, report)

    eps = unit_functional(jctx)

    def primitivity_failure(name):
        g = v.gens[name]
        T = jet_coproduct_functional(jctx, g, degree=2)
        W1 = tensor_functional_from_pair(jctx, g, eps, degree=2)
        W2 = tensor_functional_from_pair(jctx, eps, g, degree=2)
        keys = set(T) | set(W1) | set(W2)
        zval = jctx.zero_value()
        for key in keys:
            diff = T.get(key, zval) - (W1.get(key, zval) + W2.get(key, zval))
            norm = diff.normalize()
            # the correction must lie in h * (rescaled x rescaled), whose
            # table entries at depth (b1, b2) reach down to h^(1-|b1|-|b2|)
            depth = 1 - sum(key[0]) - sum(key[1])
            if norm.coeffs and norm.val < depth:
                return "%s not primitive modulo h" % name

    report.check("generators-primitive-mod-h", v.gen_names,
                 primitivity_failure)
    return dual, report


# -- the (.)' functor on the envelope side -----------------------------------------


def _counit_series(u):
    zero = CPoly.zero(u.zero.nvars)
    return HSeries(u.order, [env_counit(c) for c in u.coeffs], zero)


def _difference(spec, a, b, orders):
    """Orders 0..orders-1 of a - b for envelope series a and b, each order
    one ``_combination`` over the lcm of the two denominators."""
    return [_combination(spec.nvars, spec.rank, ((1, x), (-1, y)))
            for x, y in zip(a.coeffs[:orders], b.coeffs[:orders])]


@memo
def _projection_pieces(dfa, w, flavor):
    """The 1-leg pieces of the projection w -> w - map_F(eps(w)) at the
    leg id w, one memo entry of the deformation per (w, flavor): w alone
    for a leg with a generator, and w - map_F(x^gamma)_0 at order zero,
    then -map_F(x^gamma)_j at order j, for a pure base monomial
    w = x^gamma."""
    spec = dfa.spec
    own = _tensor(spec.nvars, spec.rank, 1, {(w,): 1})
    gamma, alpha = LEGS[w]
    if any(alpha):
        return (own,)
    mapper = dfa.source if flavor == "source" else dfa.target
    image = [TensorElement.of(env) for env in
             mapper(CPoly.monomial(spec.nvars, gamma)).coeffs]
    return [own - image[0]] + [-t for t in image[1:]]


def _project_leg(dfa, HT, leg, flavor):
    """Per-leg projection w -> w - map_F(eps(w)) on a lifted tensor series,
    the splice (``tensorspace._splice``) of the leg's memoised 1-leg pieces
    (``_projection_pieces``)."""
    return HSeries(dfa.order, _splice(
        HT.coeffs, leg, lambda w: _projection_pieces(dfa, w, flavor),
        HT.zero.legs), HT.zero)


def hprime_member(dfa, u, n_max=None):
    """delta^n(u) divisible by h^n for every n <= n_max, on lifted
    representatives, with the source and the target projections each;
    certification is relative to (N, n_max).

    One loop on leg ids: u starts as a series of 1-leg tensors, and each
    n >= 2 applies the twisted coproduct at leg 0 once, so the tensor has
    n legs; delta^n projects each of them, w -> w - map_F(eps(w)), once
    per flavor (delta^1(u) = u - map_F(eps(u))).
    """
    n_max = n_max if n_max is not None else dfa.order
    if n_max > dfa.order:
        raise ConfigError("membership order exceeds the truncation")
    HT = u.map(TensorElement.of)
    for n in range(1, n_max + 1):
        if n > MAX_LEGS:
            raise ConfigError("iterated coproduct beyond configured bound")
        if n > 1:
            HT = deformed_coproduct_leg(dfa, HT, 0)
        for flavor in ("source", "target"):
            d = HT
            for leg in range(n):
                d = _project_leg(dfa, d, leg, flavor)
            if any(c.num for c in d.coeffs[:n]):
                return False
    return True


def hprime_basis(dfa, jctx, degree, n_max=None):
    """The rescaled dual basis {h^|alpha| theta_alpha} with theta_alpha dual
    to the divided xi-powers, solved by exact triangular inversion."""
    if jctx.dfa is not dfa:
        raise ConfigError("jet context must wrap the same deformation")
    spec = dfa.spec
    n = dfa.order
    idx = pbw_indices(spec.rank, degree)
    powers = divided_xi_powers(jctx, degree)

    basis = {}
    for alpha in idx:
        cand = defelem_from_env(
            spec, EnvElement.monomial(spec.nvars, spec.rank, alpha), n)
        # kill the order-k residuals of the pairing matrix, one order at a
        # time; the order-0 row is the Kronecker delta already
        for k in range(1, n + 1):
            for beta in idx:
                resid = jet_pair(jctx, powers[beta], cand).coeff(k)
                if resid.is_zero():
                    continue
                mono = EnvElement.monomial(spec.nvars, spec.rank, beta)
                corr = dfa.source(resid).map(
                    lambda w: pbw_mul(spec, w, mono)).shift(k)
                cand = cand - corr
        for beta in idx:
            val = jet_pair(jctx, powers[beta], cand)
            want = CPoly.const(spec.nvars, 1) if beta == alpha \
                else CPoly.zero(spec.nvars)
            for q in range(n + 1):
                expect = want if q == 0 else CPoly.zero(spec.nvars)
                if val.coeff(q) != expect:
                    raise TruncationInsufficientError(
                        "dual basis solve did not converge at %s/%s"
                        % (alpha, beta))
        member = cand.shift(sum(alpha))
        if n_max and not hprime_member(dfa, member, n_max):
            raise InvariantViolation(
                "dual basis member fails the membership test")
        basis[alpha] = member
    return basis


# -- semiclassical limits ------------------------------------------------------------


def semiclassical_cobracket(dfa):
    """Order-h data of the deformation, read straight into the dual
    structure: delta(x_j) (values in the module) has anchor(f_i)(x_j) as its
    e_i coefficient, and delta(e_k) (values in wedge^2) has -c^k_ij as its
    e_i ^ e_j coefficient; the induced pair must validate as a bialgebra.
    ``cobracket_from_dual_spec`` gives delta back from the dual."""
    spec = dfa.spec
    p, m = spec.nvars, spec.rank
    report = Report("semiclassical-cobracket", {"h_order": dfa.order})
    zero = CPoly.zero(p)

    anchor, witnesses = [[zero] * p for _ in range(m)], []
    for j in range(p):
        xj = CPoly.var(p, j)
        # orders 0 and 1 of t_F(x_j) - s_F(x_j)
        d0, val = _difference(spec, dfa.target(xj), dfa.source(xj), 2)
        if not d0.is_zero():
            witnesses.append("source/target differ at order zero")
        for alpha, poly in val.terms.items():
            if sum(alpha) != 1:
                witnesses.append("delta(x%d) is not module-valued" % (j + 1))
                continue
            i = alpha.index(1)
            anchor[i][j] = anchor[i][j] + poly
    report.check("delta-on-base-is-linear", [witnesses], _first)

    bracket, witnesses = {}, []
    for i in range(m):
        u = defelem_from_env(spec, EnvElement.gen(p, m, i), dfa.order)
        lift = twisted_coproduct(dfa, u)
        first = tensor_reduce(spec, lift.coeffs[1]) if dfa.order >= 1 \
            else TensorElement.zero(p, m, 2)
        anti = first.flip() - first
        # reduce again so both legs sit in canonical position
        anti = tensor_reduce(spec, anti)
        for key, c in anti.terms.items():
            (g1, a1), (g2, a2) = key
            if sum(a1) != 1 or sum(a2) != 1:
                witnesses.append("antisymmetrized order-h coproduct of e%d "
                                 "is not bilinear" % (i + 1))
                continue
            ia, ib = a1.index(1), a2.index(1)
            coeff = CPoly.monomial(p, tuple(x + y for x, y in zip(g1, g2)), c)
            if ia == ib:
                if not coeff.is_zero():
                    witnesses.append("diagonal term in delta(e%d)" % (i + 1))
                continue
            if ia < ib:
                vec = bracket.setdefault((ia, ib), [zero] * m)
                vec[i] = vec[i] - coeff
    report.check("delta-on-generators-in-wedge2", [witnesses], _first)

    dual = LieRinehartSpec(p, m, bracket, anchor, name="cobracket-dual")
    report.check("induced-pair-is-bialgebra",
                 [lr_bialgebra_validate(spec, dual)], Report.first_failure)
    return dual, report


def semiclassical_dual_bracket(jctx):
    """Bracket and anchor on the dual module from functional commutators,
    with canonical liftings in the counit kernel, read by the vee functor's
    reader (``_dual_structure``) off the relations it needs: generator
    pairs at degree 2 and generator-coordinate pairs at degree 1.

    ``bracket-lands-in-augmentation`` asks that h^-1[xi_i, xi_j] have
    nothing below h^1 at the unit (no counit component at order zero).
    With xv_i = h^-1 xi_i, h^-1[xi_i, xi_j] = h^-1 h^2 [xv_i, xv_j]
    = h [xv_i, xv_j], so this is the unit value of [xv_i, xv_j] having
    nothing below h^0.
    """
    m = jctx.spec.rank
    report = Report("semiclassical-dual-bracket",
                    {"h_order": jctx.order, "flavor": jctx.flavor})
    v = VeeAlgebroid(jctx)
    witnesses = []
    for i, na in enumerate(v.gen_names):
        for nb in v.gen_names[i + 1:]:
            comm = jet_commutator(jctx, v.gens[na], v.gens[nb], 2)
            v.relations[(na, nb)] = comm
            unitval = comm.value(jctx, (0,) * m).normalize()
            if unitval.coeffs and unitval.val < 0:
                witnesses.append("commutator has a counit component")
    report.check("bracket-lands-in-augmentation", [witnesses], _first)
    for na in v.gen_names:
        for nb in v.base_names:
            v.relations[(na, nb)] = jet_commutator(
                jctx, v.gens[na], v.gens[nb], 1)

    return _dual_structure(v, "dual-bracket-%s" % jctx.flavor, report), report


# -- quantum-duality roundtrip ----------------------------------------------------------


def _membership_args(dfa, sample_degree=1):
    """Augmentation samples from the selected subalgebra: h^|alpha|-scaled
    generator monomials and augmentation projections of base monomials.
    These are the elements every dual-integral functional must see with
    the full h-growth."""
    spec = dfa.spec
    out = []
    for alpha in pbw_indices(spec.rank, sample_degree):
        if any(alpha):
            u = defelem_from_env(
                spec, EnvElement.monomial(spec.nvars, spec.rank, alpha),
                dfa.order)
            out.append(u.shift(sum(alpha)))
    for g in monomials_upto(spec.nvars, sample_degree)[1:]:
        u = defelem_from_env(spec, EnvElement.from_poly(spec.rank, g),
                             dfa.order)
        out.append(HSeries(dfa.order, _difference(
            spec, u, dfa.source_series(_counit_series(u)), dfa.order + 1),
            u.zero))
    return out


def augmentation_products(dfa, n_max):
    """[(n, product)] for every n-fold product of augmentation samples,
    1 <= n <= n_max, in the order of ``combinations_with_replacement``:
    each product is its (n-1)-fold prefix times one more sample, built
    once for every functional that ``functional_prime_member`` tests."""
    spec = dfa.spec
    args = _membership_args(dfa)
    out = []
    prev = {(): None}
    for n in range(1, n_max + 1):
        cur = {}
        for combo in itertools.combinations_with_replacement(range(len(args)), n):
            head, a = prev[combo[:-1]], args[combo[-1]]
            cur[combo] = prod = a if head is None else defelem_mul(spec, head, a)
            out.append((n, prod))
        prev = cur
    return out


def functional_prime_member(jctx, lam, products):
    """Pairing test: lam on each n-fold augmentation product of
    ``products`` (``augmentation_products``) must be divisible by h^n."""
    for n, prod in products:
        val = jet_pair(jctx, lam, prod).normalize()
        if val.coeffs and val.val < n:
            return False, "pairing with a %d-fold augmentation product " \
                "has order h^%d" % (n, val.val)
    return True, None


def duality_roundtrip(jctx, generators=None, n_max=3, degree=None):
    """Rescale down, rescale back up, and compare with the originals.

    ``generators`` defaults to the canonical augmentation functionals; a
    rescaled input is reported as a mismatch against the canonical table.
    With the default, ``generator-tables-recovered`` and
    ``relation-table-recovered`` compare the canonical functionals with
    themselves (h^-1 then h is the identity on them), so they pass by
    construction; ``vee-relations-integral`` (``_too_deep``) and the
    membership check are the ones that test the input.
    """
    spec = jctx.spec
    report = Report("duality-roundtrip",
                    {"h_order": jctx.order, "flavor": jctx.flavor,
                     "n_max": n_max})
    canonical = [xi_functional(jctx, i) for i in range(spec.rank)]
    gens = list(generators) if generators is not None else list(canonical)
    degree = degree if degree is not None else jctx.jet_degree

    checked = [g.shift(-1) for g in gens]

    def integrality_failure(ab):
        deep = _too_deep(jet_commutator(jctx, *ab, degree))
        if deep:
            return "rescaled commutator exceeds depth at %s" % (deep[0],)

    report.check("vee-relations-integral", itertools.combinations(checked, 2),
                 integrality_failure)

    recovered = [g.shift(1) for g in checked]
    products = augmentation_products(jctx.dfa, n_max)

    def membership_failure(i):
        member, why = functional_prime_member(jctx, recovered[i], products)
        if not member:
            return "recovered generator %d: %s" % (i + 1, why)

    indices = range(len(recovered))
    report.check("recovered-generators-pass-membership", indices,
                 membership_failure)

    report.check("generator-tables-recovered", indices, lambda i: (
        None if jets_equal(jctx, recovered[i], canonical[i])
        else "recovered generator %d differs from the canonical one" % (i + 1)))

    def relation_failure(ij):
        i, j = ij
        got = jet_commutator(jctx, recovered[i], recovered[j], degree)
        want = jet_commutator(jctx, canonical[i], canonical[j], degree)
        if not jets_equal(jctx, got, want):
            return "relation table differs on pair (%d, %d)" % (i + 1, j + 1)

    report.check("relation-table-recovered", itertools.combinations(indices, 2),
                 relation_failure)
    return report
