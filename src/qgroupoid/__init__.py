"""Exact computation with twisted enveloping algebroids.

Builds Lie-Rinehart structures on finite free modules, their enveloping
algebras in PBW normal form, twist deformations with star products and
twisted coproducts, jet-space duals with Laurent-precision pairings, the
h-rescaling functors in both directions, and semiclassical limits -- all
over exact rationals, certified at an explicit truncation order.
"""

from .deform import (
    DeformedEnvAlgebroid, basis_decompose, deformed_axiom_suite,
    exp_twistor, star_product, trivial_twistor, twisted_coproduct,
    twistor_exponent, twistor_invert, twistor_validate,
)
from .drinfeld import (
    VeeAlgebroid, duality_roundtrip, hprime_basis, hprime_member,
    semiclassical_cobracket, semiclassical_dual_bracket, vee_build,
    vee_semiclassical,
)
from .envelope import EnvElement, anchor_action, env_counit, pbw_mul
from .jets import (
    JetContext, JetElement, jet_axiom_suite, jet_coproduct_functional,
    jet_counit, jet_pair, jet_product, jet_source_target,
)
from .lierinehart import (
    LieRinehartSpec, MultiVector, lr_bialgebra_validate, lr_differential,
    lr_validate, schouten_bracket,
)
from .report import Report
from .scalars import CPoly, Fraction, parse_poly
from .series import HLaurent, HSeries, hseries_invert, hseries_mul
from .specfile import EngineSpec, load_spec, load_spec_file
from .tensorspace import (
    TensorElement, env_coproduct, takeuchi_check, tensor_mul, tensor_reduce,
)
from .kernel import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"
