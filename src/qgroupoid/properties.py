"""The sampled property suite behind ``validate``.

``structure_property_suite`` re-derives every axiom of a Lie-Rinehart
structure from scratch on seeded samples, exactly: the structure's own
axioms, PBW associativity, coassociativity, the counit and Takeuchi
conditions, d^2 = 0 and the pairing axioms of its undeformed jet dual.
"""

import random

from .deform import DeformedEnvAlgebroid, trivial_twistor
from .envelope import EnvElement, pbw_mul
from .jets import LEFT, JetContext, jet_axiom_suite
from .lierinehart import MultiVector, lr_differential, lr_validate
from .report import Check, Report
from .scalars import CPoly, Fraction, monomials_upto
from .tensorspace import (
    counit_contract, env_coproduct, same_class, takeuchi_check,
    tensor_coproduct_leg,
)

__all__ = ["structure_property_suite"]


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

    copros = [env_coproduct(spec, u) for u in elems]
    report.check("coassociativity", (
        "coassociativity fails" for T in copros
        if not same_class(spec, tensor_coproduct_leg(spec, T, 0),
                          tensor_coproduct_leg(spec, T, 1))))

    def counit_failures():
        for u, T in zip(elems, copros):
            if counit_contract(T, 0) != u or counit_contract(T, 1) != u:
                yield "counit axioms fail"

    report.check("counit-axioms", counit_failures())

    samples = monomials_upto(spec.nvars, sample_degree)
    report.check("takeuchi-membership", (
        "coproduct image escapes the subspace" for T in copros
        if not takeuchi_check(spec, T, samples)))

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
