"""Every statement of ``src/qgroupoid`` runs under a command, or is listed.

The tripwire traces line events (stdlib ``sys.settrace``, as
``tools/opcount.py`` traces opcodes) while it runs the CLI and the
benchmark's value fingerprint, and fails on a function-body statement that
none of the runs executes unless ``UNREACHED`` lists it, and on a listed
statement that a run executes.  So a dead branch inside a called function
shows, where a check per function passes it.

A statement is an ``ast`` statement of a function body, nested blocks
included; the statements of a nested function count under its own
qualified name.  Its own lines are the whole of a simple statement and the
header of a compound one (``if`` and its test, ``for`` and its iterable, a
``def`` and its decorators), and it counts only where one of them carries
bytecode, which a docstring does not.  It is reached when a
line event falls on one of its own lines, and it is named by (module,
qualified function, its own lines stripped and joined by one space), so
the list survives edits that move lines.

The runs are every spec command on axb and on the benchmark's bracketed
structure at truncation 2, ``example axb`` at 2/2, the spec whose twistor
fails validation under every command built on the twistor, one hostile
input per error path of the CLI and the spec reader (each asserting exit 3
and its message), a spec with a polynomial structure function and a valid
exponential twistor, a valid twistor that is not exp(h F_1), and the value
fingerprint of axb at N=2.  They go in
a fresh process, ``python tests/test_reachability.py DIR``, which prints
the lines each module ran.  Each statement no run reaches is either a
failing check's witness, an internal guard that no valid input reaches,
or kept for the reason given.
"""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import qgroupoid

from oracles import NONEXP_SPEC
from test_cli import (
    DEFAULT_SPEC_COMMANDS, INVALID_TWISTOR_SPEC, SPEC, TWISTOR_COMMANDS,
    _bracket_spec_text, _load_values, run_cli,
)

# the first lines of a small valid spec; a hostile input appended to it
# starts at line 7
BASE = """[base]
vars = x1 x2
[generators]
names = d1 d2
[anchor]
w 1 1 = 1
"""

# more digits than Python's int string limit (4,300 by default)
LONG = "1" * 5000

# name: (command, spec text, the error message after "error: ")
HOSTILE_SPECS = {
    "unterminated-section":
        ("validate", BASE + "[twistor\n",
         "line 7: unterminated section header"),
    "unknown-section":
        ("validate", BASE + "[colors]\n", "line 7: unknown section 'colors'"),
    "entry-before-section":
        ("validate", "not a spec\n", "line 1: entry before any section"),
    "no-equals":
        ("validate", BASE + "w 2 2\n", "line 7: expected key = value"),
    "empty-file":
        ("validate", "# nothing\n", "line 0: empty spec file"),
    "unknown-base-key":
        ("validate", BASE + "[base]\nnames = x1\n",
         "line 8: unknown base key 'names'"),
    "unknown-generators-key":
        ("validate", BASE + "[generators]\nsize = 2\n",
         "line 8: unknown generators key 'size'"),
    "bracket-entry":
        ("validate", BASE + "[bracket]\nc 1 2 = 1\n",
         "line 8: bracket entries read: c i j k = poly"),
    "anchor-entry":
        ("validate", BASE + "w 1 = 1\n",
         "line 7: anchor entries read: w i j = poly"),
    "twistor-form":
        ("validate", BASE + "[twistor]\nform = moyal\n",
         "line 8: twistor form must be exp, orders or none"),
    "term-shape":
        ("validate", BASE + "[twistor]\nterm = 1 | d1\n",
         "line 8: term reads: weight | left | right"),
    "order-key":
        ("validate", BASE + "[twistor]\norder = 1 | d1 | d2\n",
         "line 8: explicit entries read: order n = weight | left | right"),
    "order-shape":
        ("validate", BASE + "[twistor]\norder 1 = 1 | d1\n",
         "line 8: order reads: weight | left | right"),
    "unknown-twistor-key":
        ("validate", BASE + "[twistor]\nweight = 1\n",
         "line 8: unknown twistor key 'weight'"),
    "empty-twistor-key":
        ("validate", BASE + "[twistor]\n= 1\n",
         "line 8: unknown twistor key ''"),
    "unknown-truncation-key":
        ("validate", BASE + "[truncation]\npbw = 2\n",
         "line 8: unknown truncation key 'pbw'"),
    "unknown-samples-key":
        ("validate", BASE + "[samples]\ncount = 2\n",
         "line 8: unknown samples key 'count'"),
    "unknown-rng-key":
        ("validate", BASE + "[rng]\nstate = 2\n",
         "line 8: unknown rng key 'state'"),
    "bad-weight":
        ("validate", BASE + "[twistor]\nterm = w | d1 | d2\n",
         "line 8: bad weight 'w'"),
    "not-an-integer":
        ("validate", BASE + "[truncation]\nh_order = two\n",
         "line 8: expected an integer, got 'two'"),
    "no-names":
        ("validate", "[truncation]\nh_order = 2\n",
         "spec declares neither variables nor generators"),
    "no-generators":
        ("validate", "[base]\nvars = x1\n", "spec declares no generators"),
    "duplicate-variables":
        ("validate", "[base]\nvars = x1 x1\n[generators]\nnames = d1\n",
         "duplicate variable names"),
    "duplicate-generators":
        ("validate", "[base]\nvars = x1\n[generators]\nnames = d1 d1\n",
         "duplicate generator names"),
    "names-overlap":
        ("validate", "[base]\nvars = x1\n[generators]\nnames = x1\n",
         "variable and generator names overlap"),
    "variable-name":
        ("validate", "[base]\nvars = y1\n[generators]\nnames = d1\n",
         "variables must be named x1..xp, got 'y1'"),
    "variable-order":
        ("validate", "[base]\nvars = x2 x1\n[generators]\nnames = d1\n",
         "variables must appear in order x1..xp"),
    "bracket-index":
        ("validate", BASE + "[bracket]\nc 2 1 1 = 1\n",
         "line 8: bracket index out of range"),
    "anchor-index":
        ("validate", BASE + "w 3 1 = 1\n",
         "line 7: anchor index out of range"),
    "truncation-below-one":
        ("validate", BASE + "[truncation]\nn_max = 0\n",
         "all truncation degrees must be >= 1"),
    "truncation-above-budget":
        ("validate", BASE + "[truncation]\nh_order = 11\n",
         "h_order and jet_degree must be <= 10"),
    "pbw-degree-above-budget":
        ("validate", BASE + "[truncation]\npbw_degree = 11\n",
         "pbw_degree must be <= 10"),
    "n-max-above-legs":
        ("validate", BASE + "[truncation]\nn_max = 9\n",
         "n_max must be <= 8"),
    "sample-degree-above-budget":
        ("validate", BASE + "[samples]\nmax_degree = 11\n",
         "[samples] max_degree must be <= 10"),
    "term-without-exp":
        ("validate", BASE + "[twistor]\nterm = 1 | d1 | d2\n",
         "line 8: term entries need form = exp, not none"),
    "order-without-orders":
        ("validate", BASE + "[twistor]\nform = exp\norder 1 = 1 | d1 | d2\n",
         "line 9: order entries need form = orders, not exp"),
    "empty-polynomial":
        ("validate", BASE + "w 2 2 =\n", "line 7: empty polynomial"),
    "dangling-sign":
        ("validate", BASE + "w 2 2 = 1 +\n",
         "line 7: dangling sign in '1 +'"),
    "bad-factor":
        ("validate", BASE + "w 2 2 = 2y\n", "line 7: bad factor '2y'"),
    "zero-denominator":
        ("validate", BASE + "w 2 2 = 1/0\n",
         "line 7: zero denominator in '1/0'"),
    "variable-out-of-range":
        ("validate", BASE + "w 2 2 = x3\n",
         "line 7: variable x3 out of range"),
    # the twistor's monomials are parsed when the twistor is built
    "empty-factor":
        ("twist", BASE + "[twistor]\nform = exp\nterm = 1 | d1* | d2\n",
         "line 9: empty factor in 'd1*'"),
    "negative-power":
        ("twist", BASE + "[twistor]\nform = exp\nterm = 1 | d1^-1 | d2\n",
         "line 9: power must be a non-negative integer in 'd1^-1'"),
    "unknown-factor":
        ("twist", BASE + "[twistor]\nform = exp\nterm = 1 | d3 | d2\n",
         "line 9: unknown factor 'd3'"),
    "bad-coefficient":
        ("twist", BASE + "[twistor]\nform = exp\nterm = 1 | 3/0*d1 | d2\n",
         "line 9: bad coefficient '3/0'"),
    "order-zero":
        ("twist", BASE + "[twistor]\nform = orders\norder 0 = 1 | d1 | d2\n",
         "line 9: explicit twistor orders start at h^1"),
    # bounded twistor monomials: generator degree at most pbw_degree (6 by
    # default), a number's power at most MAX_TRUNCATION
    "twistor-degree-above-pbw-degree":
        ("twist", BASE + "[twistor]\nform = exp\nterm = 1 | d1^990 | d2\n",
         "line 9: generator degree of 'd1^990' is above pbw_degree = 6"),
    "twistor-number-power-above-budget":
        ("twist", BASE + "[twistor]\nform = exp\n"
         "term = 1 | 7^20000000*d1 | d2\n",
         "line 9: power of '7^20000000' is above 10"),
    # the size of a structure, one above each bound (specfile.MAX_RANK,
    # MAX_VARS and MAX_EXTRA)
    "rank-above-budget":
        ("validate", "[base]\nvars = x1\n[generators]\nrank = 13\n",
         "the rank must be <= 12"),
    "generator-names-above-budget":
        ("dualize", "[base]\nvars = x1\n[generators]\nnames = %s\n"
         % " ".join("d%d" % i for i in range(1, 14)), "the rank must be <= 12"),
    "variables-above-budget":
        ("twist", "[base]\nvars = %s\n[generators]\nnames = d1\n"
         % " ".join("x%d" % i for i in range(1, 10)),
         "the number of base variables must be <= 8"),
    # [samples] max_degree = 5 on 8 variables: C(13, 5) sample monomials
    # (specfile.MAX_SAMPLES)
    "sample-monomials-above-budget":
        ("validate", "[base]\nvars = %s\n[generators]\nnames = d1\n"
         "[samples]\nmax_degree = 5\n" % " ".join(
             "x%d" % i for i in range(1, 9)),
         "the number of sample monomials, C(p + max_degree, max_degree) = "
         "1287, must be <= 1000"),
    "extra-polynomials-above-budget":
        ("twist", BASE + "[samples]\nextra = x1; x2; x1*x2; x1^2; x2^2\n"
         "extra = 1; 2; 3; 4\n",
         "the number of [samples] extra polynomials must be <= 8"),
    # a number with more digits than Python converts to an int, at each
    # place the reader converts one
    "integer-too-long":
        ("validate", BASE + "[truncation]\nh_order = %s\n" % LONG,
         "line 8: number too long: 5000 digits"),
    "coefficient-too-long":
        ("validate", BASE + "w 2 2 = %s\n" % LONG,
         "line 7: number too long: 5000 digits"),
    "variable-index-too-long":
        ("validate", BASE + "w 2 2 = x%s\n" % LONG,
         "line 7: number too long: 5000 digits"),
    "variable-power-too-long":
        ("validate", BASE + "w 2 2 = x1^%s\n" % LONG,
         "line 7: number too long: 5000 digits"),
    "twistor-power-too-long":
        ("twist", BASE + "[twistor]\nform = exp\nterm = 1 | d1^%s | d2\n"
         % LONG, "line 9: number too long: 5000 digits"),
}

# rho(e1) = d1, rho(e2) = x1^2 d1 + d2, [e1, e2] = 2 x1 e1, twisted by
# exp(h r), r = (X (x) Y - Y (x) X) / 2 with X = e1 and Y = e2 - x1^2 e1
# (``tests/test_fast_paths.polynomial_exp_dfa``): e2 e1 = e1 e2 - 2 x1 e1 is
# not a pure monomial, so the decompositions and pairings take their
# impure paths
POLYNOMIAL_SPEC = """[base]
vars = x1 x2
[generators]
rank = 2
[bracket]
c 1 2 1 = 2*x1
[anchor]
w 1 1 = 1
w 2 1 = x1^2
w 2 2 = 1
[twistor]
form = exp
term = 1 | 1/2*e1 | e2
term = -1/2 | e1 | x1^2*e1
term = -1/2 | e2 | e1
term = 1/2 | x1^2*e1 | e1
[truncation]
h_order = 2
jet_degree = 2
n_max = 2
[samples]
extra = x1*x2
"""

# a rank-3 bracket that breaks the Jacobi identity
JACOBI_SPEC = """[base]
vars =
[generators]
rank = 3
[bracket]
c 1 2 3 = 1
c 2 3 1 = 1
c 1 3 1 = 1
"""

# (module, qualified function, group, reason, statements) for the
# statements no run reaches; statements is None where no statement of the
# function runs.  Groups: "check-failure" is a failing check's branch, which
# every valid input passes; "guard" an internal check that no valid input
# trips; "kept" code that stays for the reason given.
GROUPS = ("check-failure", "guard", "kept")
WITNESS = "a failing check's witness; every valid input passes the check"
UNREACHED = [
    # -- check-failure ------------------------------------------------------
    ("axb", "axb_relation_suite.series_failure", "check-failure", WITNESS, (
        'return "source series on x1 differs at h^%d" % n',
        'return "target series on x1 differs at h^%d" % n',
    )),
    ("axb", "axb_relation_suite.x2_failure", "check-failure", WITNESS,
     ('return "series on x2 differ"',)),
    ("cli", "_run", "check-failure",
     "the vee functor's integrality failure, which vee_build raises only "
     "on a failing rescaling", (
         'report.check("vee-integrality", [exc], str)',
     )),
    ("deform", "deformed_axiom_suite.classical_failure", "check-failure",
     WITNESS, (
         'return "coproduct deformed at order zero"',
         'return "source map deformed at order zero"',
         'return "target map deformed at order zero"',
     )),
    ("deform", "deformed_axiom_suite.counit_failure", "check-failure",
     WITNESS, (
         'return "left counit axiom fails on %r" % (u.coeffs[0],)',
         'return "right counit axiom fails on %r" % (u.coeffs[0],)',
     )),
    ("deform", "deformed_axiom_suite.morphism_failure", "check-failure",
     WITNESS, ('return "source map not a star morphism"',)),
    ("deform", "deformed_axiom_suite.multiplicative_failure", "check-failure",
     WITNESS, ('return "coproduct not multiplicative"',)),
    ("deform", "twistor_validate", "check-failure",
     "the early return after a leading term that is not 1 (x) 1: the "
     "deformation's constructor guarantees F_0 = 1 (x) 1, and the check "
     "stays for the report bytes", ("return report [1]",)),
    ("deform", "twistor_validate.counit_failure", "check-failure", WITNESS,
     ('return "counit condition fails at order h^%d" % n',)),
    ("drinfeld", "_too_deep", "check-failure",
     "the depth rule's witness; every valid twist is integral",
     ("return beta, low",)),
    ("drinfeld", "duality_roundtrip.integrality_failure", "check-failure",
     WITNESS, ('return "rescaled commutator exceeds depth at %s" % (deep[0],)',)),
    ("drinfeld", "duality_roundtrip.membership_failure", "check-failure",
     WITNESS, ('return "recovered generator %d: %s" % (i + 1, why)',)),
    ("drinfeld", "duality_roundtrip.relation_failure", "check-failure",
     WITNESS, ('return "relation table differs on pair (%d, %d)" '
               '% (i + 1, j + 1)',)),
    ("drinfeld", "functional_prime_member", "check-failure", WITNESS, (
        'return False, "pairing with a %d-fold augmentation product " \\ '
        '"has order h^%d" % (n, low)',
    )),
    ("drinfeld", "semiclassical_cobracket", "check-failure", WITNESS, (
        "continue [1]",
        "continue [2]",
        "continue [3]",
        "if not coeff.is_zero():",
        'witnesses.append("antisymmetrized order-h coproduct of e%d " '
        '"is not bilinear" % (i + 1))',
        'witnesses.append("delta(x%d) is not module-valued" % (j + 1))',
        'witnesses.append("diagonal term in delta(e%d)" % (i + 1))',
        'witnesses.append("source/target differ at order zero")',
    )),
    ("drinfeld", "semiclassical_dual_bracket", "check-failure", WITNESS,
     ('witnesses.append("commutator has a counit component")',)),
    ("drinfeld", "vee_build", "check-failure",
     "the vee functor's integrality failure; every valid twist is integral",
     ('raise NonIntegralError( deep[1], "commutator [%s, %s] exceeds the '
      'rescaling depth " "at %s" % (na, nb, deep[0]))',)),
    ("drinfeld", "vee_semiclassical", "check-failure", WITNESS, (
        'below_scale.append( "relation [%s,%s] has terms below the '
        'generator scale" % (na, nb))',
        "break",
    )),
    ("drinfeld", "vee_semiclassical.primitivity_failure", "check-failure",
     WITNESS, ('return "%s not primitive modulo h" % name',)),
    ("envelope", "_same_value", "check-failure",
     "the unequal answer of two same-sized numerator dicts over different "
     "denominators, which every check passes; recognising exp(h F_1) on a "
     "series that is not meets unequal sizes first", ("return False [2]",)),
    ("errors", "NonIntegralError.__init__", "check-failure",
     "raised by the vee functor's integrality failure alone", None),
    ("jets", "jet_axiom_suite.action_failure", "check-failure", WITNESS,
     ('return "source-action compatibility fails at %s" % (beta,)',)),
    ("jets", "jet_axiom_suite.associativity_failure", "check-failure",
     WITNESS, ('return "associativity fails on %s" % (beta,)',)),
    ("jets", "jet_axiom_suite.classical_failure", "check-failure", WITNESS,
     ('return "classical limit mismatch at %s" % (beta,)',)),
    ("jets", "jet_axiom_suite.commutativity_failure", "check-failure",
     WITNESS, ('return "dual ring not commutative at h^0 on %s" % (beta,)',)),
    ("jets", "tensor_tables_equal", "check-failure",
     "the unequal answer of a comparison that every check passes",
     ("return False",)),
    ("lierinehart", "lr_bialgebra_validate", "check-failure",
     "the early returns of a pair whose ranks differ or whose structures "
     "fail; the command builds the pair from one valid structure", (
         "return report [1]",
         "return report [2]",
     )),
    ("lierinehart", "lr_bialgebra_validate.derivation_failure",
     "check-failure", WITNESS, (
         'return "delta[e%d, f e%d] mismatch for f=%s" % (i + 1, j + 1, f)',
     )),
    ("lierinehart", "lr_validate.anchor_failure", "check-failure", WITNESS, (
        'return "anchor([e%d,e%d]) != [anchor(e%d),anchor(e%d)] on %s" \\ '
        '% (i + 1, j + 1, i + 1, j + 1, f)',
    )),
    ("lierinehart", "lr_validate.leibniz_failure", "check-failure",
     WITNESS, (
         'return "[e%d, f e%d] != anchor(e%d)(f) e%d + f [e%d,e%d] for f=%s" '
         '\\ % (i + 1, j + 1, i + 1, j + 1, i + 1, j + 1, f)',
     )),
    ("properties", "structure_property_suite.counit_failure",
     "check-failure", WITNESS, ('return "counit axioms fail"',)),
    ("properties", "structure_property_suite.differential_failure",
     "check-failure", WITNESS, (
         'return "d^2 e*%d != 0" % (case + 1)',
         'return "d^2 f != 0 for f=%s" % case',
     )),
    ("report", "Report.first_failure", "check-failure",
     "the witness of a failing sub-report, which no valid input makes",
     ('return "%s: %s" % (c.name, c.witness or c.status)',)),
    ("tensorspace", "takeuchi_check", "check-failure", WITNESS,
     ("return False",)),
    # -- guard ----------------------------------------------------------------
    ("axb", "build_axb", "guard",
     "the CLI bounds the truncation before it builds the example",
     ('raise ConfigError("h order and jet degree must be >= 1")',)),
    ("cli", "main", "guard",
     "an engine error that no valid input raises; "
     "test_invariant_violation_is_a_failing_check patches an engine call to "
     "reach it", (
         "_emit(report, args) [1]",
         "report = Report(args.command)",
         'report.record("engine", FAIL if isinstance(exc, InvariantViolation) '
         'else INDETERMINATE, str(exc), None)',
         "return EXIT[report.verdict()] [1]",
     )),
    ("deform", "DeformedEnvAlgebroid.__init__", "guard",
     "every twistor the spec reader builds has the unit at order 0",
     ('raise TriangularityViolation("twistor order-0 term must be 1 (x) '
      '1")',)),
    ("deform", "basis_decompose", "guard",
     "every caller passes source or target",
     ('raise ConfigError("flavor must be source or target")',)),
    ("drinfeld", "hprime_member", "guard",
     "the CLI bounds n_max by h_order and by MAX_LEGS", (
         'raise ConfigError("iterated coproduct beyond configured bound")',
         'raise ConfigError("membership order exceeds the truncation")',
     )),
    ("envelope", "pbw_mul", "guard",
     "both operands of every product come from one structure",
     ('raise ConfigError("operands over different structures")',)),
    ("jets", "JetContext.__init__", "guard",
     "the CLI passes a known flavor and a bounded jet degree", (
         'raise ConfigError("jet degree must be >= 1")',
         'raise FlavorError("flavor must be %r or %r" % (LEFT, RIGHT))',
     )),
    ("jets", "JetElement.add", "guard", "every sum is of one flavor",
     ('raise FlavorError("mixed dual flavors")',)),
    ("jets", "jet_coproduct_functional", "guard",
     "every functional is of its context's flavor",
     ('raise FlavorError("mixed dual flavors")',)),
    ("jets", "jet_product", "guard",
     "every product is of its context's flavor",
     ('raise FlavorError("mixed dual flavors")',)),
    ("jets", "jet_product_eval", "guard",
     "every product is of its context's flavor",
     ('raise FlavorError("mixed dual flavors")',)),
    ("jets", "tensor_functional_from_pair", "guard",
     "every pair is of its context's flavor",
     ('raise FlavorError("mixed dual flavors")',)),
    ("kernel", "poly_scale", "guard",
     "a zero scale keeps no term, as a polynomial holds nonzero "
     "coefficients only; the tests scale by zero", ("return {}",)),
    ("lierinehart", "LieRinehartSpec.__init__", "guard",
     "the spec reader checks the indices and the anchor's shape first", (
         'raise ConfigError("anchor matrix must be rank x nvars")',
         'raise ConfigError("bracket coefficients over wrong variables")',
         'raise ConfigError("bracket entry must list all %d components" '
         '% rank)',
         'raise ConfigError("bracket table needs i < j within rank")',
     )),
    ("lierinehart", "MultiVector.__add__", "guard",
     "every sum is of one degree",
     ('raise ConfigError("mixed multivector degrees")',)),
    ("lierinehart", "schouten_bracket", "guard",
     "the derivation condition brackets degree 1 with degrees <= 2; "
     "test_schouten_examples reaches it",
     ('raise DegreeUnsupportedError("schouten bracket limited to degrees 1 '
      'x <=2")',)),
    ("scalars", "CPoly._check", "guard", "every operation is on one base",
     ('raise ConfigError("polynomials over different variable counts")',)),
    ("scalars", "CPoly.const", "guard",
     "a zero constant has no term, as a polynomial holds nonzero "
     "coefficients only; the tests build one", ("return cls(nvars)",)),
    ("scalars", "CPoly.var", "guard",
     "the spec reader checks the variable index first",
     ('raise ConfigError("variable index %d out of range" % j)',)),
    ("series", "HLaurent.__init__", "guard",
     "every window is built with its coefficients",
     ('raise ConfigError("laurent window size mismatch")',)),
    ("series", "HSeries.__init__", "guard",
     "every series is built with its coefficients",
     ('raise ConfigError("series needs exactly %d coefficients" '
      '% (order + 1))',)),
    ("series", "HSeries._check", "guard",
     "every operation is at one truncation order",
     ('raise ConfigError("mixed truncation orders %d and %d" % '
      '(self.order, other.order))',)),
    ("series", "HSeries.shift", "guard",
     "negative shifts go through HLaurent",
     ('raise ConfigError("use HLaurent for negative h-powers")',)),
    ("series", "LaurentSum.add", "guard",
     "a zero multiple writes nothing; the commands add nonzero multiples "
     "only, the oracles zero ones too", ("return",)),
    ("series", "LaurentSum.add_product", "guard",
     "every product has a certified window",
     ('raise ConfigError("laurent product has empty certified window")',)),
    ("series", "hseries_invert", "guard",
     "every inverted series has a unit leading coefficient", (
         'raise NotAUnitError("a0_inv does not invert the leading '
         'coefficient")',
         'raise NotAUnitError("leading coefficient is not invertible")',
         'raise NotAUnitError("leading coefficient is zero")',
     )),
    ("tensorspace", "TensorElement._check", "guard",
     "every operation is on one shape",
     ('raise ConfigError("tensor shape mismatch")',)),
    ("tensorspace", "TensorElement.flip", "guard",
     "only 2-leg tensors are flipped",
     ('raise ConfigError("flip is for 2-leg tensors")',)),
    ("tensorspace", "_mul_into", "guard",
     "every product has 2 legs (test_cli_tensor_products_have_two_legs)",
     ('raise ConfigError("tensor products have 2 legs")',)),
    ("tensorspace", "_reduce_into", "guard",
     "every reduction has 2 or 3 legs; test_reduce_kernels_match_the_loop "
     "reaches it",
     ('raise ConfigError("tensor reductions have 2 or 3 legs")',)),
    # -- kept -----------------------------------------------------------------
    ("envelope", "memo", "kept",
     "runs once per memoised function, when its module is imported, before "
     "any command is traced; its wrapper ``memo.memoised`` runs on every "
     "call", None),
    ("deform", "DeformedEnvAlgebroid.__init__", "kept",
     "validate=True: every caller passes False, but perfbench/values.py "
     "passes the keyword, so the parameter goes with a change to the "
     "benchmark", (
         "if not rep.ok():",
         'raise ConfigError("invalid twistor: %s" % rep.first_failure())',
         "rep = twistor_validate(self)",
     )),
    ("deform", "twistor_invert", "kept",
     "the inverse of a twistor series on its own, which the tests compare "
     "and the benchmark tracer names; a deformation takes G from the "
     "exponent it recognised (``_inverse``)", None),
    ("drinfeld", "hprime_basis", "kept",
     "the H' dual basis that the duality round trip is to compare its "
     "recovered generators with (ROADMAP item 5)", None),
    ("jets", "divided_xi_powers", "kept",
     "the divided xi-powers that hprime_basis solves against (ROADMAP "
     "item 5)", None),
    ("jets", "jet_axiom_suite.filtration_failure", "kept",
     "filtration-growth evaluates the witnesses it is given, and no caller "
     "gives any yet (ROADMAP item 7)", None),
    ("envelope", "_same_value", "kept",
     "equality of nonzero numerators over two different denominators, "
     "which tensors need (their den is not in lowest terms); each deformed "
     "class test reduces one signed difference, and the commands' twistors "
     "meet it in recognising exp(h F_1) only as zero orders or unequal "
     "sizes, while the oracles and tests compare nonzero ones",
     ("d = b.get(k)", "if d is None or c * db != d * da:")),
    ("envelope", "EnvElement.__add__", "kept",
     "the value type's sum, which the oracles and tests use; "
     "test_cli_sums_no_envelope_elements_by_addition keeps commands off it",
     None),
    ("series", "HSeries.__add__", "kept",
     "the series sum, which the oracles and tests use "
     "(test_deform.py::test_source_target_series, the series_images "
     "registry entry); every twisted coproduct a command builds is one "
     "splice", None),
    ("series", "hs_zero", "kept",
     "the zero series, which the oracles and tests build", None),
    ("envelope", "EnvElement.__hash__", "kept",
     "defining __eq__ leaves a class unhashable without __hash__", None),
    ("tensorspace", "TensorElement.__hash__", "kept",
     "defining __eq__ leaves a class unhashable without __hash__", None),
    ("scalars", "CPoly.__bool__", "kept",
     "without it every polynomial, zero included, would be truthy", None),
    ("kernel", "poly_mul", "kept",
     "the product of two multi-term polynomials, which CPoly arithmetic in "
     "the tests and oracles reaches; every product a command makes has a "
     "monomial operand", (
         "del out[k]",
         "for ka, va in a.items():",
         "for kb, vb in b.items():",
         "if s:",
         "k = tuple(map(add, ka, kb))",
         "out = {}",
         "out[k] = s",
         "return out",
         "s = out.get(k, _ZERO) + (va if vb == 1 else va * vb)",
     )),
    ("scalars", "CPoly.__add__", "kept",
     "a sum with a number, which the tests use",
     ("other = CPoly.const(self.nvars, other)",)),
    ("scalars", "CPoly.__sub__", "kept",
     "a difference with a number, which the tests use",
     ("other = CPoly.const(self.nvars, other)",)),
    ("tensorspace", "TensorElement.scale", "kept",
     "a scale by a number of another type, or by zero, which the tests use",
     ("c = Fraction(c)",
      "return TensorElement.zero(self.nvars, self.rank, self.legs)")),
    ("lierinehart", "LieRinehartSpec.__init__", "kept",
     "a structure built without an anchor, as the tests build them",
     ("anchor = [[zero] * nvars for _ in range(rank)]",)),
    ("scalars", "CPoly.__str__", "kept",
     "display of a power above one, which a failing check's witness shows",
     ('factors.append("x%d^%d" % (j + 1, e))',)),
    ("envelope", "EnvElement.__repr__", "kept",
     "display for debugging and test output", ('return "0"',)),
    ("jets", "JetElement.__repr__", "kept",
     "display for debugging and test output", None),
    ("lierinehart", "LieRinehartSpec.__repr__", "kept",
     "display for debugging and test output", None),
    ("lierinehart", "MultiVector.__repr__", "kept",
     "display for debugging and test output", None),
    ("series", "HSeries.__repr__", "kept",
     "display for debugging and test output", None),
    ("tensorspace", "TensorElement.__repr__", "kept",
     "display for debugging and test output", None),
    ("tensorspace", "TensorElement.__repr__.leg_str", "kept",
     "display for debugging and test output", None),
]


def _code_lines(code):
    """The lines that carry bytecode in code and in the code it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """[(qualified function, text, own lines)] of the function-body
    statements of one source file whose own lines carry bytecode."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    code = _code_lines(compile(source, path, "exec"))
    out = []

    def own(stmt):
        body = getattr(stmt, "body", None)
        if body and isinstance(body[0], ast.stmt):
            first = min([stmt.lineno] + [d.lineno for d in getattr(
                stmt, "decorator_list", ())])
            return first, max(stmt.lineno, body[0].lineno - 1)
        return stmt.lineno, stmt.end_lineno

    def walk(body, qual, in_function):
        for stmt in body:
            if in_function:
                first, last = own(stmt)
                mine = set(range(first, last + 1)) & code
                if mine:
                    text = " ".join(l.strip() for l in lines[first - 1:last])
                    out.append((".".join(qual), text, mine))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(stmt.body, qual + (stmt.name,), True)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, qual + (stmt.name,), in_function)
            else:
                for block in ("body", "orelse", "finalbody"):
                    walk(getattr(stmt, block, None) or (), qual, in_function)
                for handler in getattr(stmt, "handlers", ()):
                    walk(handler.body, qual, in_function)

    walk(ast.parse(source).body, (), False)
    # a text met more than once in one function is numbered in source order
    seen = Counter((qual, text) for qual, text, _ in out)
    count = Counter()
    for i, (qual, text, mine) in enumerate(out):
        if seen[qual, text] > 1:
            count[qual, text] += 1
            out[i] = (qual, "%s [%d]" % (text, count[qual, text]), mine)
    return out


def _traced_lines(files, runs):
    """{file: the lines of it that ran} while each of ``runs`` is called."""
    hits = {path: set() for path in files}

    def call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    return hits


def _cli_runs(tmp_path):
    """(argv, exit code, stderr or None where it is not compared) of every
    CLI run of the tripwire."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    bracket = write("bracket.spec", _bracket_spec_text(2))
    # a rational anchor and bracket put Fractions into the leg table
    rational = write("rational.spec", _bracket_spec_text(Fraction(1, 2)))
    # an explicit order above the truncation is left out, so the twistor
    # fails as it does without it
    invalid = write("cocycle.spec", INVALID_TWISTOR_SPEC.replace(
        "[truncation]", "order 4 = -1/3 | d1 | x2*d2\n[truncation]"))
    polynomial = write("polynomial.spec", POLYNOMIAL_SPEC)
    nonexp = write("nonexp.spec", NONEXP_SPEC)
    jacobi = write("jacobi.spec", JACOBI_SPEC)
    missing = str(tmp_path / "missing.spec")
    small = ["--h-order", "2", "--jet-degree", "2", "--n-max", "2"]
    runs = [(["example", "axb"] + small, 0, None)]
    runs += [([cmd[0], spec] + cmd[1:] + small + ["--json-only"], 0, "")
             for spec in (SPEC, bracket) for cmd in DEFAULT_SPEC_COMMANDS]
    runs += [(["validate", SPEC, "--seed", "3", "--h-order", "11",
               "--json-only"], 3, "error: h_order and jet_degree must be "
              "<= 10\n"),
             (["drinfeld", SPEC, "--functor", "prime", "--h-order", "3",
               "--n-max", "3", "--json-only"], 0, ""),
             (["twist", rational] + small + ["--json-only"], 0, ""),
             # the property suite's products meet those Fractions, which
             # an element's numerators clear (``envelope._element``)
             (["validate", rational] + small + ["--json-only"], 0, ""),
             (["validate", jacobi, "--json-only"], 1, "")]
    # the failing checks printed in the human summary once
    runs += [([cmd[0], invalid] + cmd[1:] + ["--json-only"] * (i > 0), 1,
              None if i == 0 else "")
             for i, cmd in enumerate(TWISTOR_COMMANDS)]
    # semiclassical reaches the impure decompositions and pairings of the
    # polynomial spec and the dual products' factors whose support is None
    # (``jets._support``), and twist at N=1 the reduction that takes a
    # second pass; the other commands, and twist at N=2, reach nothing more
    runs += [(["semiclassical", polynomial, "--json-only"], 0, ""),
             (["twist", polynomial, "--h-order", "1", "--json-only"], 0, "")]
    # twist reaches the order-by-order inverse and the Cauchy conjugation
    runs += [(["twist", nonexp, "--json-only"], 0, "")]
    for name, (command, text, message) in HOSTILE_SPECS.items():
        runs.append(([command, write(name + ".spec", text), "--json-only"], 3,
                     "error: %s\n" % message))
    runs += [
        (["validate", missing, "--json-only"], 3, "error: cannot read spec "
         "file %s: No such file or directory\n" % missing),
        (["example", "axb", "--h-order", "2", "--n-max", "3", "--json-only"],
         3, "error: n_max (3) must be <= h_order (2)\n"),
        (["frobnicate"], 3, None),
    ]
    return runs


def _engine_files():
    """{source file: module name without the package} of the engine."""
    modules = [importlib.import_module(m.name) for m in pkgutil.iter_modules(
        qgroupoid.__path__, "qgroupoid.")]
    return {mod.__file__: mod.__name__.rsplit(".", 1)[1] for mod in modules}


def _run_traced(tmp_path):
    """{module: the lines of it that the runs execute}."""
    files = _engine_files()
    values = _load_values()

    def cli(argv, want, err):
        def run():
            code, _, got = run_cli(argv)
            assert code == want, (argv, got)
            assert err is None or got == err, argv
        return run

    def fingerprint():
        values.fingerprint_parts(values.build(SPEC, "deformation", 2, 2), 2)

    runs = [cli(*run) for run in _cli_runs(tmp_path)] + [fingerprint]
    hits = _traced_lines(files, runs)
    return {files[path]: sorted(lines) for path, lines in hits.items()}


def test_every_engine_statement_runs_under_a_command(tmp_path):
    # the runs go in a fresh process: the process-wide leg and shift
    # registries (envelope.LEGS, envelope.SHIFTS) that earlier tests fill
    # would keep their first-time branches from running
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(qgroupoid.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    hits = json.loads(proc.stdout)
    statements, unreached = set(), set()
    for path, module in _engine_files().items():
        for qual, text, mine in _statements(path):
            statements.add((module, qual, text))
            if not mine.intersection(hits[module]):
                unreached.add((module, qual, text))
    listed = set()
    for module, qual, group, reason, texts in UNREACHED:
        assert group in GROUPS and reason
        if texts is None:
            keys = {k for k in statements if k[:2] == (module, qual)}
            assert keys, (module, qual)
        else:
            keys = {(module, qual, text) for text in texts}
        assert not keys & listed, (module, qual)
        listed |= keys
    # a statement no run reaches, and a listed one that a run reaches
    assert sorted(unreached - listed) == []
    assert sorted(listed - unreached) == []


@pytest.mark.parametrize("name", HOSTILE_SPECS)
def test_hostile_spec_exits_3_within_a_second(tmp_path, name):
    """Each hostile input exits 3 with its exact message, in under 1 s."""
    command, text, message = HOSTILE_SPECS[name]
    path = tmp_path / "hostile.spec"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli([command, str(path), "--json-only"])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", "error: %s\n" % message)


if __name__ == "__main__":
    print(json.dumps(_run_traced(pathlib.Path(sys.argv[1]))))
