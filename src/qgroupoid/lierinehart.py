"""Lie-Rinehart structures on finite free modules.

A structure is given by bracket constants c^k_{ij} in A = Q[x1..xp]
(stored for i < j only) and an anchor matrix w_{ij}, meaning
[e_i, e_j] = sum_k c^k_{ij} e_k and anchor(e_i) = sum_j w_{ij} d/dx_j.
Module elements are sparse maps {generator index: CPoly}; multivectors and
forms are sparse maps from strictly increasing index tuples to CPoly.
"""

import itertools
from collections import defaultdict
from types import MappingProxyType

from .errors import ConfigError, DegreeUnsupportedError
from .report import Check, Report
from .scalars import CPoly, monomials_upto

__all__ = [
    "LieRinehartSpec", "MultiVector", "CobracketData",
    "lr_validate", "lr_differential", "schouten_bracket",
    "lr_bialgebra_validate", "cobracket_from_dual_spec",
]


class LieRinehartSpec:
    """Structure constants and anchor for (A, L) with L free of rank m.

    ``bracket`` is a read-only mapping and ``anchor`` a tuple of tuples:
    the product table ``_leg_table`` (``envelope.leg_product``) and the
    ``envelope.memo`` tables of ``_memos`` (the anchor action, Delta(e^alpha))
    are filled on the structure, so it must not change after construction.
    """

    def __init__(self, nvars, rank, bracket=None, anchor=None, name=""):
        self.nvars = nvars
        self.rank = rank
        self.name = name
        zero = CPoly.zero(nvars)
        table = {}
        for (i, j), vec in (bracket or {}).items():
            if not 0 <= i < j < rank:
                raise ConfigError("bracket table needs i < j within rank")
            vec = tuple(vec)
            if len(vec) != rank:
                raise ConfigError("bracket entry must list all %d components" % rank)
            if any(v.nvars != nvars for v in vec):
                raise ConfigError("bracket coefficients over wrong variables")
            if any(not v.is_zero() for v in vec):
                table[(i, j)] = vec
        self.bracket = MappingProxyType(table)
        if anchor is None:
            anchor = [[zero] * nvars for _ in range(rank)]
        self.anchor = tuple(tuple(row) for row in anchor)
        if len(self.anchor) != rank or any(len(r) != nvars for r in self.anchor):
            raise ConfigError("anchor matrix must be rank x nvars")
        # leg id -> {leg id: their product as (id, q)}
        self._leg_table = defaultdict(dict)
        self._memos = defaultdict(dict)

    # -- basic structure maps ------------------------------------------------

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a coefficient vector (antisymmetric fill-in)."""
        zero = CPoly.zero(self.nvars)
        if i == j:
            return (zero,) * self.rank
        if i < j:
            return self.bracket.get((i, j), (zero,) * self.rank)
        return tuple(-c for c in self.bracket_basis(j, i))

    def anchor_apply(self, i, f):
        """anchor(e_i)(f)."""
        out = CPoly.zero(self.nvars)
        for j in range(self.nvars):
            w = self.anchor[i][j]
            if not w.is_zero():
                out = out + w * f.diff(j)
        return out

    def anchor_elem(self, X, f):
        """anchor(X)(f) for a module element X = {i: coeff}."""
        out = CPoly.zero(self.nvars)
        for i, c in X.items():
            if not c.is_zero():
                out = out + c * self.anchor_apply(i, f)
        return out

    def bracket_elems(self, X, Y):
        """[X, Y] for module elements, via the Leibniz extension."""
        out = {}
        for i, a in X.items():
            for j, b in Y.items():
                vec = self.bracket_basis(i, j)
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        _acc(out, k, a * b * c)
                _acc(out, j, a * self.anchor_apply(i, b))
                _acc(out, i, -(b * self.anchor_apply(j, a)))
        return _strip(out)

    def basis_elem(self, i):
        return {i: CPoly.one(self.nvars)}

    def __repr__(self):
        return "LieRinehartSpec(p=%d, m=%d%s)" % (
            self.nvars, self.rank, ", %s" % self.name if self.name else "")


def _acc(table, key, poly):
    cur = table.get(key)
    table[key] = poly if cur is None else cur + poly


def _strip(table):
    return {k: v for k, v in table.items() if not v.is_zero()}


# -- multivectors and forms ---------------------------------------------------


def _sort_tuple(idx):
    """Sort an index tuple, return (sorted, sign) or (None, 0) on repeats."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class MultiVector:
    """Element of wedge^k L (or of wedge^k L* -- same container)."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars, degree, terms=None):
        self.nvars = nvars
        self.degree = degree
        self.terms = {}
        for idx, c in (terms or {}).items():
            srt, sign = _sort_tuple(idx)
            if sign and not c.is_zero():
                cur = self.terms.get(srt)
                val = c * sign if sign == -1 else c
                self.terms[srt] = val if cur is None else cur + val
        self.terms = _strip(self.terms)

    @classmethod
    def zero(cls, nvars, degree):
        return cls(nvars, degree)

    @classmethod
    def from_elem(cls, nvars, elem):
        return cls(nvars, 1, {(i,): c for i, c in elem.items()})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.degree != other.degree:
            raise ConfigError("mixed multivector degrees")
        out = dict(self.terms)
        for k, v in other.terms.items():
            _acc(out, k, v)
        return MultiVector(self.nvars, self.degree, _strip(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiVector(self.nvars, self.degree,
                           {k: -v for k, v in self.terms.items()})

    def scale(self, poly):
        return MultiVector(self.nvars, self.degree,
                           {k: v * poly for k, v in self.terms.items()})

    def wedge(self, other):
        out = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                srt, sign = _sort_tuple(ia + ib)
                if sign:
                    _acc(out, srt, ca * cb * sign)
        return MultiVector(self.nvars, self.degree + other.degree, _strip(out))

    def __eq__(self, other):
        return isinstance(other, MultiVector) and self.degree == other.degree \
            and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)%s" % (c, "^".join("e%d" % (i + 1) for i in idx))
                          for idx, c in sorted(self.terms.items()))


# -- validation ---------------------------------------------------------------


def lr_validate(spec, sample_degree=2):
    """Check Jacobi, the anchor morphism property and Leibniz compatibility.

    ``leibniz-compatibility`` holds for every bracket and anchor: it guards
    ``bracket_elems``, which applies the Leibniz rule itself, against that
    expansion written out by hand, not the input."""
    report = Report("lie-rinehart-validate")
    samples = monomials_upto(spec.nvars, sample_degree)
    m = spec.rank

    def jacobi_failures():
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j + 1, m):
                    ei, ej, ek = (spec.basis_elem(t) for t in (i, j, k))
                    jac = {}
                    for term in (spec.bracket_elems(spec.bracket_elems(ei, ej), ek),
                                 spec.bracket_elems(spec.bracket_elems(ej, ek), ei),
                                 spec.bracket_elems(spec.bracket_elems(ek, ei), ej)):
                        for t, c in term.items():
                            _acc(jac, t, c)
                    jac = _strip(jac)
                    if jac:
                        yield "jacobi(e%d,e%d,e%d) = %s" % (i + 1, j + 1, k + 1, jac)

    report.check("jacobi-basis-triples", jacobi_failures())

    def anchor_failures():
        for i in range(m):
            for j in range(i + 1, m):
                bij = spec.bracket_basis(i, j)
                for f in samples:
                    lhs = CPoly.zero(spec.nvars)
                    for k, c in enumerate(bij):
                        if not c.is_zero():
                            lhs = lhs + c * spec.anchor_apply(k, f)
                    rhs = spec.anchor_apply(i, spec.anchor_apply(j, f)) \
                        - spec.anchor_apply(j, spec.anchor_apply(i, f))
                    if lhs != rhs:
                        yield "anchor([e%d,e%d]) != [anchor(e%d),anchor(e%d)] on %s" \
                            % (i + 1, j + 1, i + 1, j + 1, f)

    report.check("anchor-lie-morphism", anchor_failures())

    def leibniz_failures():
        for i in range(m):
            for j in range(m):
                for f in samples:
                    lhs = spec.bracket_elems(spec.basis_elem(i), {j: f})
                    rhs = dict(spec.bracket_elems(spec.basis_elem(i),
                                                  spec.basis_elem(j)))
                    rhs = {k: v * f for k, v in rhs.items()}
                    _acc(rhs, j, spec.anchor_apply(i, f))
                    if lhs != _strip(rhs):
                        yield "[e%d, f e%d] != anchor(e%d)(f) e%d + f [e%d,e%d] for f=%s" \
                            % (i + 1, j + 1, i + 1, j + 1, i + 1, j + 1, f)

    report.check("leibniz-compatibility", leibniz_failures())
    return report


# -- Cartan differential ------------------------------------------------------


def lr_differential(spec, form):
    """d on wedge A L* via the two-sum Cartan formula, degree k -> k+1."""
    m = spec.rank
    n = form.degree
    if n + 1 > m:
        return MultiVector.zero(spec.nvars, n + 1)
    out = {}
    for idx in itertools.combinations(range(m), n + 1):
        val = CPoly.zero(spec.nvars)
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            lam = form.terms.get(rest, None) if n else form.terms.get((), None)
            if lam is not None:
                sgn = 1 if pos % 2 == 0 else -1
                val = val + sgn * spec.anchor_apply(i, lam)
        for pa in range(n + 1):
            for pb in range(pa + 1, n + 1):
                i, j = idx[pa], idx[pb]
                rest = tuple(t for pos, t in enumerate(idx) if pos not in (pa, pb))
                vec = spec.bracket_basis(i, j)
                acc = CPoly.zero(spec.nvars)
                for k, c in enumerate(vec):
                    if c.is_zero():
                        continue
                    srt, sign = _sort_tuple((k,) + rest)
                    if sign:
                        lam = form.terms.get(srt)
                        if lam is not None:
                            acc = acc + c * lam * sign
                sgn = 1 if (pa + pb + 2) % 2 == 0 else -1
                val = val + sgn * acc
        if not val.is_zero():
            out[idx] = val
    return MultiVector(spec.nvars, n + 1, out)


# -- Schouten bracket (the degree range the derivation condition needs) -------


def schouten_bracket(spec, X, Y):
    """Biderivation extension of the bracket, a degree-1 first operand
    and a second of degree 0, 1 or 2, the range the derivation condition
    needs.

    A degree-0 operand is a CPoly; degree 1 and 2 are MultiVector.
    [X, f] = anchor(X)(f); [X, Y^Z] = [X,Y]^Z + Y^[X,Z].
    """
    dy = 0 if isinstance(Y, CPoly) else Y.degree
    if X.degree != 1 or dy > 2:
        raise DegreeUnsupportedError("schouten bracket limited to degrees 1 x <=2")
    Xel = {i: c for (i,), c in X.terms.items()}
    if dy == 0:
        return spec.anchor_elem(Xel, Y)
    if dy == 1:
        Yel = {i: c for (i,), c in Y.terms.items()}
        return MultiVector.from_elem(spec.nvars, spec.bracket_elems(Xel, Yel))
    # dy == 2: expand Y = sum c * e_a ^ e_b and apply the biderivation rule
    out = MultiVector.zero(spec.nvars, 2)
    for (a, b), c in Y.terms.items():
        ea = MultiVector.from_elem(spec.nvars, spec.basis_elem(a))
        eb = MultiVector.from_elem(spec.nvars, spec.basis_elem(b))
        xc = schouten_bracket(spec, X, c)          # degree 0
        xa = schouten_bracket(spec, X, ea)         # degree 1
        xb = schouten_bracket(spec, X, eb)
        out = out + ea.wedge(eb).scale(xc) \
            + xa.wedge(eb).scale(c) + ea.wedge(xb).scale(c)
    return out


# -- Lie-Rinehart bialgebra pairs ---------------------------------------------


class CobracketData:
    """delta on the base variables (values in L) and on basis vectors
    (values in wedge^2 L), as induced by a structure on the dual."""

    def __init__(self, spec, delta_base, delta_gens):
        self.spec = spec
        self.delta_base = tuple(delta_base)   # one MultiVector (deg 1) per x_j
        self.delta_gens = tuple(delta_gens)   # one MultiVector (deg 2) per e_k

    def on_poly(self, f):
        """delta(f) in L, extended as a derivation over A."""
        out = MultiVector.zero(self.spec.nvars, 1)
        for j in range(self.spec.nvars):
            df = f.diff(j)
            if not df.is_zero():
                out = out + self.delta_base[j].scale(df)
        return out

    def on_elem(self, X):
        """delta(sum a_i e_i) = sum (delta(a_i) ^ e_i + a_i delta(e_i))."""
        out = MultiVector.zero(self.spec.nvars, 2)
        for i, a in X.items():
            ei = MultiVector.from_elem(self.spec.nvars, self.spec.basis_elem(i))
            out = out + self.on_poly(a).wedge(ei) + self.delta_gens[i].scale(a)
        return out


def cobracket_from_dual_spec(specL, specLstar):
    """Build delta on A and on generators out of the dual structure.

    delta(a) = sum_i anchor*(e*_i)(a) e_i and
    delta(e_k) = - sum_{i<j} c*^k_{ij} e_i ^ e_j, the unique solution of the
    pairing identities relating the two structures.
    """
    p, m = specL.nvars, specL.rank
    delta_base = []
    for j in range(p):
        xj = CPoly.var(p, j)
        terms = {}
        for i in range(m):
            v = specLstar.anchor_apply(i, xj)
            if not v.is_zero():
                terms[(i,)] = v
        delta_base.append(MultiVector(p, 1, terms))
    delta_gens = []
    for k in range(m):
        terms = {}
        for (i, j), vec in specLstar.bracket.items():
            c = vec[k]
            if not c.is_zero():
                terms[(i, j)] = -c
        delta_gens.append(MultiVector(p, 2, terms))
    return CobracketData(specL, delta_base, delta_gens)


def lr_bialgebra_validate(specL, specLstar, sample_degree=2):
    """Validate that (L, L*) is a Lie-Rinehart bialgebra.

    Both structures must validate individually; then the cobracket built
    from the dual structure must be a derivation of the bracket of L,
    checked on pairs (e_i, f e_j) with f running over low-degree monomials.
    """
    report = Report("lie-rinehart-bialgebra")
    if specL.rank != specLstar.rank or specL.nvars != specLstar.nvars:
        report.add(Check("ranks-match", False,
                         "rank/base mismatch between L and L*"))
        return report
    repL = lr_validate(specL, sample_degree)
    repD = lr_validate(specLstar, sample_degree)
    report.add(Check("l-structure-valid", repL.ok(), repL.first_failure()))
    report.add(Check("dual-structure-valid", repD.ok(), repD.first_failure()))
    if not (repL.ok() and repD.ok()):
        return report

    delta = cobracket_from_dual_spec(specL, specLstar)
    samples = monomials_upto(specL.nvars, sample_degree)

    def derivation_failures():
        for i in range(specL.rank):
            for j in range(specL.rank):
                for f in samples:
                    X = specL.basis_elem(i)
                    Y = {j: f}
                    lhs = delta.on_elem(specL.bracket_elems(X, Y))
                    mvX = MultiVector.from_elem(specL.nvars, X)
                    mvY = MultiVector.from_elem(specL.nvars, Y)
                    rhs = schouten_bracket(specL, mvX, delta.on_elem(Y)) \
                        - schouten_bracket(specL, mvY, delta.on_elem(X))
                    if lhs != rhs:
                        yield "delta[e%d, f e%d] mismatch for f=%s" % (i + 1, j + 1, f)

    report.check("cobracket-derivation", derivation_failures())
    return report
