"""Fast paths against their slow oracles.

- ``pbw_mul`` reads one memo table of e^alpha x^gamma e^beta; the oracle is
  the generator-by-generator rewriting u * b * e_i * ... kept below.
- An exponential twistor F = exp(h r) conjugates by the Hadamard expansion;
  the oracle is the two Cauchy products G . (S . F) by ``hseries_mul``.

Both run on the axb spec and on a bracketed structure with a non-constant
anchor.
"""

import itertools
import os
import random
from fractions import Fraction

import pytest

from qgroupoid.deform import (
    DeformedEnvAlgebroid, Twistor, defelem_from_env, deformed_coproduct_leg,
    exp_twistor, twisted_coproduct,
)
from qgroupoid.envelope import EnvElement, pbw_mul
from qgroupoid.errors import ConfigError
from qgroupoid.lierinehart import LieRinehartSpec, lr_validate
from qgroupoid.scalars import CPoly
from qgroupoid.series import hs_const, hseries_mul
from qgroupoid.specfile import load_spec_file
from qgroupoid.tensorspace import (
    TensorElement, env_coproduct, tensor_coproduct_leg, tensor_mul,
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


STRUCTURES = [axb_structure, bracketed_structure]


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

