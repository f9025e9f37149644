"""Spec-file ingestion: a sectioned plain-text format.

Sections in square brackets, key = value entries, comments with '#'.
Polynomials use the x1..xp syntax of the scalar parser; envelope monomials
additionally allow generator names (as declared in [generators]) and
powers '^n' with n a non-negative integer, e.g. ``1/2 | x1*d1 | d2`` for
one twistor term.

    [base]        vars = x1 x2
    [generators]  names = d1 d2            (or: rank = 2)
    [bracket]     c i j k = <poly>         ([e_i, e_j] component k; i < j)
    [anchor]      w i j = <poly>
    [twistor]     form = exp | orders | none
                  term = <weight> | <left monomial> | <right monomial>
                  order n = <weight> | <left monomial> | <right monomial>
                  (term lines need form = exp, order lines form = orders)
    [truncation]  h_order / pbw_degree / jet_degree / n_max
                  (h_order, pbw_degree, jet_degree <= 10; n_max <= 8;
                  pbw_degree bounds the generator degree of each
                  twistor monomial)
    [samples]     max_degree = 2 (<= 10), extra = <poly>; <poly>
                  (extra lines add up, to at most 8 polynomials)

A spec declares at most 12 generators and 8 base variables, and at most
1000 sample monomials of degree <= max_degree, C(p + max_degree,
max_degree) on p variables.
    [rng]         seed = 7
"""

import re
from fractions import Fraction
from math import comb

from .deform import exp_twistor, trivial_twistor
from .envelope import EnvElement
from .errors import ParseError, SemanticError
from .lierinehart import LieRinehartSpec
from .scalars import CPoly, parse_number, parse_poly
from .series import HSeries
from .tensorspace import MAX_LEGS, TensorElement

__all__ = [
    "EngineSpec", "load_spec", "load_spec_file", "parse_env_monomial",
    "check_truncation", "MAX_TRUNCATION", "MAX_RANK", "MAX_VARS", "MAX_EXTRA",
    "MAX_SAMPLES",
]

# Input budget: the largest h_order and jet_degree a run accepts.  Cost
# grows about sixfold from order 4 to order 6; the shipped spec uses 4.
MAX_TRUNCATION = 10
# The largest rank, number of base variables and number of [samples] extra
# polynomials a spec declares.  On specs/axb.spec at its own truncation,
# widened to one bound or to all three, every command finished in under
# 10 s on one core: dualize 2.6 s at rank 12, twist 3.2 s on 8 variables
# (its star-associativity loop is cubic in the base monomials of degree
# <= 2) and 8.7 s at all three bounds.
MAX_RANK = 12
MAX_VARS = 8
MAX_EXTRA = 8
# The most sample monomials C(p + max_degree, max_degree) that validate
# enumerates.  The bounds above hold one at a time, not in products: at
# rank 12, validate took 4.8 s on 8 variables at max_degree 4 (495
# monomials), 7.2 s on 6 variables at 6 (924) and 9.2 s on 8 at 5 (1,287),
# one process on a shared 2-core machine.
MAX_SAMPLES = 1000

_SECTIONS = ("base", "generators", "bracket", "anchor", "twistor",
             "truncation", "samples", "rng")


class EngineSpec:
    def __init__(self):
        self.var_names = []
        self.gen_names = []
        self.bracket_entries = []   # (i, j, k, poly-text, line)
        self.anchor_entries = []    # (i, j, poly-text, line)
        self.twistor_form = "none"
        self.twistor_terms = []     # (weight, left-text, right-text, line)
        self.twistor_orders = []    # (n, weight, left-text, right-text, line)
        self.h_order = 2
        self.pbw_degree = 6
        self.jet_degree = 2
        self.n_max = 2
        self.sample_degree = 2
        self.extra_entries = []     # (poly-text, line)
        self.extra_polys = []       # the entries parsed, at load time
        self.seed = 0

    @property
    def nvars(self):
        return len(self.var_names)

    @property
    def rank(self):
        return len(self.gen_names)

    def build_structure(self):
        p, m = self.nvars, self.rank
        bracket = {}
        for (i, j, k, text, line) in self.bracket_entries:
            key = (i - 1, j - 1)
            vec = list(bracket.get(key, [CPoly.zero(p)] * m))
            vec[k - 1] = vec[k - 1] + parse_poly(text, p, line)
            bracket[key] = tuple(vec)
        anchor = [[CPoly.zero(p)] * p for _ in range(m)]
        for (i, j, text, line) in self.anchor_entries:
            anchor[i - 1][j - 1] = anchor[i - 1][j - 1] + parse_poly(text, p, line)
        return LieRinehartSpec(p, m, bracket, anchor, name="specfile")

    def build_twistor(self, spec, order):
        if self.twistor_form == "none":
            return trivial_twistor(spec, order)
        if self.twistor_form == "exp":
            r = TensorElement.zero(spec.nvars, spec.rank, 2)
            for entry in self.twistor_terms:
                r = r + self._term(*entry)
            return exp_twistor(spec, r, order)
        # explicit per-order tensor lists; order 0 is always the unit
        zero = TensorElement.zero(spec.nvars, spec.rank, 2)
        coeffs = [TensorElement.unit(spec.nvars, spec.rank, 2)] \
            + [zero] * order
        for (n, weight, left, right, line) in self.twistor_orders:
            if n < 1:
                raise SemanticError("line %d: explicit twistor orders start "
                                    "at h^1" % line)
            if n > order:
                continue
            coeffs[n] = coeffs[n] + self._term(weight, left, right, line)
        return HSeries(order, coeffs, zero)

    def _term(self, weight, left, right, line):
        """weight left (x) right for one twistor entry."""
        return TensorElement.of(*[parse_env_monomial(
            text, self.var_names, self.gen_names, self.pbw_degree, line)
            for text in (left, right)]).scale(weight)


_INT = re.compile(r"-?\d+$")
_POWER = re.compile(r"\d+")


def parse_env_monomial(text, var_names, gen_names, max_degree, line=0):
    """A product of a rational, base variables and generator names, of
    generator degree at most ``max_degree``; a number's power is at most
    ``MAX_TRUNCATION``."""
    p, m = len(var_names), len(gen_names)
    coeff = Fraction(1)
    gamma = [0] * p
    alpha = [0] * m
    for factor in text.strip().split("*"):
        factor = factor.strip()
        if not factor:
            raise ParseError(line, "empty factor in %r" % text)
        name, caret, power = factor.partition("^")
        if caret and not _POWER.fullmatch(power):
            raise ParseError(line, "power must be a non-negative integer "
                             "in %r" % factor)
        power = parse_number(int, power, line) if caret else 1
        if name in var_names:
            gamma[var_names.index(name)] += power
        elif name in gen_names:
            alpha[gen_names.index(name)] += power
        elif re.fullmatch(r"-?\d+(/\d+)?", name):
            if power > MAX_TRUNCATION:
                raise ParseError(line, "power of %r is above %d"
                                 % (factor, MAX_TRUNCATION))
            coeff *= _fraction(name, line, "coefficient") ** power
        else:
            raise ParseError(line, "unknown factor %r" % name)
    if sum(alpha) > max_degree:
        raise ParseError(line, "generator degree of %r is above pbw_degree "
                         "= %d" % (text.strip(), max_degree))
    return EnvElement.monomial(p, m, tuple(alpha),
                               CPoly.monomial(p, tuple(gamma), coeff))


def load_spec_file(path):
    with open(path, encoding="utf-8") as fh:
        return load_spec(fh.read())


def load_spec(text):
    """Parse and validate spec text; returns an EngineSpec."""
    spec = EngineSpec()
    section = None
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seen_any = True
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, "unterminated section header")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(lineno, "unknown section %r" % section)
            continue
        if section is None:
            raise ParseError(lineno, "entry before any section")
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(lineno, "expected key = value")
        key, value = key.strip(), value.strip()
        _dispatch(spec, section, key, value, lineno)
    if not seen_any:
        raise ParseError(0, "empty spec file")
    _validate(spec)
    spec.extra_polys = [parse_poly(poly, spec.nvars, line)
                        for poly, line in spec.extra_entries]
    return spec


def _dispatch(spec, section, key, value, lineno):
    if section == "base":
        if key != "vars":
            raise ParseError(lineno, "unknown base key %r" % key)
        spec.var_names = value.split()
    elif section == "generators":
        if key == "names":
            spec.gen_names = value.split()
        elif key == "rank":
            # names past the bound are not built; _validate rejects the rank
            spec.gen_names = ["e%d" % (i + 1) for i in
                              range(min(_int(value, lineno), MAX_RANK + 1))]
        else:
            raise ParseError(lineno, "unknown generators key %r" % key)
    elif section == "bracket":
        parts = key.split()
        if len(parts) != 4 or parts[0] != "c":
            raise ParseError(lineno, "bracket entries read: c i j k = poly")
        spec.bracket_entries.append(
            (_int(parts[1], lineno), _int(parts[2], lineno),
             _int(parts[3], lineno), value, lineno))
    elif section == "anchor":
        parts = key.split()
        if len(parts) != 3 or parts[0] != "w":
            raise ParseError(lineno, "anchor entries read: w i j = poly")
        spec.anchor_entries.append(
            (_int(parts[1], lineno), _int(parts[2], lineno), value, lineno))
    elif section == "twistor":
        if key == "form":
            if value not in ("exp", "orders", "none"):
                raise ParseError(lineno,
                                 "twistor form must be exp, orders or none")
            spec.twistor_form = value
        elif key == "term":
            bits = [b.strip() for b in value.split("|")]
            if len(bits) != 3:
                raise ParseError(lineno, "term reads: weight | left | right")
            weight = _fraction(bits[0], lineno, "weight")
            spec.twistor_terms.append((weight, bits[1], bits[2], lineno))
        elif key.split()[:1] == ["order"]:
            parts = key.split()
            if len(parts) != 2:
                raise ParseError(lineno, "explicit entries read: "
                                 "order n = weight | left | right")
            bits = [b.strip() for b in value.split("|")]
            if len(bits) != 3:
                raise ParseError(lineno, "order reads: weight | left | right")
            weight = _fraction(bits[0], lineno, "weight")
            spec.twistor_orders.append(
                (_int(parts[1], lineno), weight, bits[1], bits[2], lineno))
        else:
            raise ParseError(lineno, "unknown twistor key %r" % key)
    elif section == "truncation":
        if key not in ("h_order", "pbw_degree", "jet_degree", "n_max"):
            raise ParseError(lineno, "unknown truncation key %r" % key)
        setattr(spec, key, _int(value, lineno))
    elif section == "samples":
        if key == "max_degree":
            spec.sample_degree = _int(value, lineno)
        elif key == "extra":
            spec.extra_entries += [(s.strip(), lineno)
                                   for s in value.split(";") if s.strip()]
        else:
            raise ParseError(lineno, "unknown samples key %r" % key)
    elif section == "rng":
        if key != "seed":
            raise ParseError(lineno, "unknown rng key %r" % key)
        spec.seed = _int(value, lineno)


def _fraction(text, lineno, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, "bad %s %r" % (what, text)) from None


def _int(value, lineno):
    if not _INT.match(value.strip()):
        raise ParseError(lineno, "expected an integer, got %r" % value)
    return parse_number(int, value, lineno)


def _validate(spec):
    for count, what, bound in (
            (spec.rank, "the rank", MAX_RANK),
            (spec.nvars, "the number of base variables", MAX_VARS),
            (len(spec.extra_entries),
             "the number of [samples] extra polynomials", MAX_EXTRA)):
        if count > bound:
            raise SemanticError("%s must be <= %d" % (what, bound))
    if not spec.var_names and not spec.gen_names:
        raise SemanticError("spec declares neither variables nor generators")
    if not spec.gen_names:
        raise SemanticError("spec declares no generators")
    if len(set(spec.var_names)) != len(spec.var_names):
        raise SemanticError("duplicate variable names")
    if len(set(spec.gen_names)) != len(spec.gen_names):
        raise SemanticError("duplicate generator names")
    if set(spec.var_names) & set(spec.gen_names):
        raise SemanticError("variable and generator names overlap")
    for name in spec.var_names:
        if not re.fullmatch(r"x\d+", name):
            raise SemanticError("variables must be named x1..xp, got %r" % name)
    for i, name in enumerate(spec.var_names):
        if name != "x%d" % (i + 1):
            raise SemanticError("variables must appear in order x1..xp")
    m = spec.rank
    for (i, j, k, _, line) in spec.bracket_entries:
        if not (1 <= i < j <= m) or not 1 <= k <= m:
            raise SemanticError("line %d: bracket index out of range" % line)
    for (i, j, _, line) in spec.anchor_entries:
        if not 1 <= i <= m or not 1 <= j <= spec.nvars:
            raise SemanticError("line %d: anchor index out of range" % line)
    # build_twistor reads terms under exp and orders under orders alone
    for entries, form, what in ((spec.twistor_terms, "exp", "term"),
                                (spec.twistor_orders, "orders", "order")):
        if entries and spec.twistor_form != form:
            raise SemanticError("line %d: %s entries need form = %s, not %s"
                                % (entries[0][-1], what, form,
                                   spec.twistor_form))
    check_truncation(spec.h_order, spec.jet_degree, spec.n_max,
                     spec.pbw_degree, spec.sample_degree)
    samples = comb(spec.nvars + spec.sample_degree, spec.sample_degree)
    if samples > MAX_SAMPLES:
        raise SemanticError("the number of sample monomials, C(p + max_degree, "
                            "max_degree) = %d, must be <= %d"
                            % (samples, MAX_SAMPLES))


def check_truncation(h_order, jet_degree, n_max, pbw_degree=1,
                     sample_degree=1):
    """Bounds on the truncation parameters, for spec files and overrides:
    every degree at least 1; h_order, jet_degree, pbw_degree and the sample
    degree ([samples] max_degree, whose monomials ``validate`` enumerates)
    at most ``MAX_TRUNCATION``; and n_max, the most legs of the iterated
    coproducts the membership tests build, at most ``MAX_LEGS``."""
    if min(h_order, jet_degree, n_max, pbw_degree, sample_degree) < 1:
        raise SemanticError("all truncation degrees must be >= 1")
    if max(h_order, jet_degree) > MAX_TRUNCATION:
        raise SemanticError("h_order and jet_degree must be <= %d"
                            % MAX_TRUNCATION)
    if pbw_degree > MAX_TRUNCATION:
        raise SemanticError("pbw_degree must be <= %d" % MAX_TRUNCATION)
    if sample_degree > MAX_TRUNCATION:
        raise SemanticError("[samples] max_degree must be <= %d"
                            % MAX_TRUNCATION)
    if n_max > MAX_LEGS:
        raise SemanticError("n_max must be <= %d" % MAX_LEGS)
