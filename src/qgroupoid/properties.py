"""Randomized structure generators and the sampled property suite.

Valid structures are drawn from families whose axioms hold by
construction (constant solvable brackets, derivation algebras, split
anchors); the property suite then re-derives every axiom from scratch on
seeded samples, exactly.
"""

import random

from .deform import DeformedEnvAlgebroid, trivial_twistor
from .envelope import EnvElement, pbw_mul
from .jets import LEFT, JetContext, jet_axiom_suite
from .lierinehart import LieRinehartSpec, MultiVector, lr_differential, \
    lr_validate
from .report import Check, Report
from .scalars import CPoly, Fraction, monomials_upto
from .tensorspace import (
    counit_contract, env_coproduct, iterated_coproduct, takeuchi_check,
    tensor_coproduct_leg, tensor_reduce,
)

__all__ = ["random_valid_specs", "structure_property_suite",
           "jacobi_violating_spec"]


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


def _random_env(spec, rng, max_deg=2):
    terms = {}
    for _ in range(2):
        alpha = [0] * spec.rank
        for _ in range(rng.randint(0, max_deg)):
            alpha[rng.randrange(spec.rank)] += 1
        exp = tuple(rng.randint(0, 1) for _ in range(spec.nvars))
        coeff = CPoly.monomial(spec.nvars, exp, Fraction(rng.randint(-2, 2)))
        a = tuple(alpha)
        cur = terms.get(a, CPoly.zero(spec.nvars))
        terms[a] = cur + coeff
    return EnvElement(spec.nvars, spec.rank, terms)


def structure_property_suite(spec, seed=0, sample_degree=2, h_order=2,
                             jet_degree=3):
    """Re-derive the algebra, coalgebra and pairing axioms on seeded samples."""
    rng = random.Random(seed)
    report = Report("structure-properties",
                    {"seed": seed, "h_order": h_order,
                     "jet_degree": jet_degree, "name": spec.name})
    rep = lr_validate(spec, sample_degree)
    report.extend(rep, prefix="lr")
    if not rep.ok():
        return report

    elems = [_random_env(spec, rng) for _ in range(4)]
    report.check("pbw-associativity", (
        "associativity fails"
        for u, v, w in (rng.sample(elems, 3) for _ in range(4))
        if pbw_mul(spec, pbw_mul(spec, u, v), w)
        != pbw_mul(spec, u, pbw_mul(spec, v, w))))

    report.check("coassociativity", (
        "coassociativity fails" for u in elems
        if tensor_reduce(spec, iterated_coproduct(spec, u, 2))
        != tensor_reduce(spec, tensor_coproduct_leg(spec, env_coproduct(spec, u), 1))))

    def counit_failures():
        for u in elems:
            T = env_coproduct(spec, u)
            if counit_contract(T, 0) != u or counit_contract(T, 1) != u:
                yield "counit axioms fail"

    report.check("counit-axioms", counit_failures())

    samples = monomials_upto(spec.nvars, sample_degree)
    report.check("takeuchi-membership", (
        "coproduct image escapes the subspace" for u in elems
        if not takeuchi_check(spec, env_coproduct(spec, u), samples)))

    def differential_failures():
        for f in samples:
            df = lr_differential(spec, MultiVector(spec.nvars, 0, {(): f}))
            if not lr_differential(spec, df).is_zero():
                yield "d^2 f != 0 for f=%s" % f
        for i in range(spec.rank):
            lam = MultiVector(spec.nvars, 1, {(i,): CPoly.one(spec.nvars)})
            if not lr_differential(spec, lr_differential(spec, lam)).is_zero():
                yield "d^2 e*%d != 0" % (i + 1)

    report.check("differential-squares-to-zero", differential_failures())

    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, h_order),
                               validate=False)
    ctx = JetContext(dfa, LEFT, jet_degree)
    jrep = jet_axiom_suite(ctx, sample_degree=min(sample_degree, 2))
    report.add(Check("pairing-axioms", jrep.ok(), jrep.first_failure()))
    return report
