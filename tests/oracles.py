"""Test-only oracles and test data, kept out of the engine.

No command of the CLI calls these; the tests compare the engine with them.

- ``reexpand`` inverts ``deform.basis_decompose``: it maps each coefficient
  series through ``DeformedEnvAlgebroid.source_series``/``target_series``
  and multiplies by e^beta, so a decomposition must re-expand to its input.
- ``evaluation_iso_check`` checks the jet pairing (``jets.jet_pair`` and
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

import random

from qgroupoid.envelope import EnvElement, _mul_mono_into, _rows_series
from qgroupoid.errors import TruncationInsufficientError
from qgroupoid.jets import (
    JetElement, _pair_entry, divided_xi_powers, jet_coproduct_functional,
    jet_pair, table_sum, tensor_functional_from_pair, tensor_tables_equal,
)
from qgroupoid.lierinehart import LieRinehartSpec, cobracket_from_dual_spec
from qgroupoid.scalars import CPoly, Fraction, pbw_indices
from qgroupoid.series import HLaurent


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


# -- jet duals ---------------------------------------------------------------------


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
            val = jet_pair(ctx, powers[kappa], mono).coeff(0)
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
                    rhs = rhs + jet_pair(ctx, powers[k1], m1).coeff(0) \
                        * jet_pair(ctx, powers[k2], m2).coeff(0)
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
