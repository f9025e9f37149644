"""Jet-space duals of a (deformed) enveloping algebroid.

A jet functional is recorded by its values on PBW monomials up to the jet
degree d; values are Laurent-truncated base series so that h-rescaled
functionals keep honest precision.  Left-dual functionals satisfy
phi(s_F(a) u) = a * phi(u) and pair through source decompositions; right
duals satisfy psi(t_F(a) u) = psi(u) * a and pair through target ones.
The decomposition of x^gamma e^alpha is built from that of x^gamma alone
(``DeformedEnvAlgebroid.decompose_mono``): x^gamma e^alpha = sum_beta
map(c_beta) (e^beta e^alpha), with e^beta e^alpha read from the leg table
and its impure terms, which only polynomial structure functions make,
solved as one remainder series.  That is exact for any twistor with
F_0 = 1 (x) 1, so one triangular solve per (flavor, x^gamma) serves every
pairing with a basis monomial.

Most pairings vanish, as the dual product is the transpose of the twisted
coproduct, and a functional's table says so before anything is paired.
One support rule (``_support``) gives the indices a table must hold for
the pairing of a sum of basis monomials to be nonzero: alpha for a pure
e^alpha; for an impure x^gamma e^alpha, the indices delta of the
leg-table terms of every e^beta e^alpha, e^beta over the decomposition of
x^gamma, which the deformation keeps (``pairing_support``), or None where
such a term is impure.  One test reads it (``_misses``), for a basis
monomial (``_pair_mono``) and for the rows of a product of a basis
monomial with an element (``_pair_image``).

Dual products are tabulated as the transpose of the coproduct lift
(``jet_product``).  The lift of each PBW index up to the degree is read
once per context and degree into a map from each (paired leg w, other
leg o), by leg ids, to the positions of the indices whose lift holds that
pair (``_transpose``).  A product computes each factor mu(W . o), W the
mapped image of lam(w), once over the legs w where lam does not vanish
and adds it, at the order and coefficient read back from the lift, into
the sum of every index the pair lists (``_scatter``): the nonzero factors
first, each index's sum created by its first, then the zero factors,
which only narrow the windows of the sums that exist.  An index no
nonzero factor reaches is zero.  ``jet_product_eval`` evaluates one index
on its own, through the same images and rows; no command calls it, and
it is kept only because the benchmark's value fingerprint and tracer
name it.

One reader decides the value and window of every row sum
(``_pair_rows``), skipping the pairing when the rows' support misses the
functional's table.  A functional is evaluated on the product of a basis
monomial m with an element W (``_pair_image``) from an entry (W, rows)
that keeps the product rows by each m met and their support.  Each
functional keeps two ``envelope.memo`` tables, keyed by the context
first: its pairings with basis monomials (``_pair_mono``) and its images
(``_image``), W a first pairing mapped by s_F or t_F.  A dual product
reads its first factor's images on the paired lift legs, a tensor
functional its first factor's on the paired indices; no image depends on
a partner, so every partner reads the same rows.  The dual coproduct, the
transpose of the product, is the tensor functional's table with W the
basis monomial e^beta itself, whose entries the context keeps
(``_monomial``); one loop tabulates both (``_pair_table``).  The
partner's pairing of each row is kept by no memo: a tabulation computes
it once per (paired leg, other leg).

Every sum of this layer is accumulated in place in one
``series.LaurentSum`` per result: the star pairings over a decomposition,
the pairings of an element's monomials (of every h-order of a series at
once) and the terms c h^k P of a dual product.  Each sum equals the chain
of ``HLaurent`` additions it stands for, window included.

A product that is only paired or counit-evaluated is never built as an
element: the envelope's one product loop (``envelope._mul_mono_into``)
sums its terms from the structure's product table into one row
(q, numerators by leg id, denominator) per h-order, the numerators
holding exactly the nonzero terms of the product's normal form, and the
pairing reads the row (``_pair_image``).  Every pairing reads that row
format (``_pair_rows``), an element's order being its numerators and
denominator as they are (``jet_pair``), and the s_F or t_F image of a
pairing is summed over one denominator per order too
(``_apply_series_map``).  A term on a pure leg e^alpha (``envelope.PURE``)
pairs as a read of the functional's table and is not memoised
(``_pair_leg``); only the impure ones go through ``_pair_mono``.
"""

import itertools
from bisect import bisect_right
from collections import defaultdict

from .deform import DeformedEnvAlgebroid, trivial_twistor
from .envelope import (
    LEGS, PURE, EnvElement, _act_into, _element, _mul_mono_into,
    _series_image, leg_id, memo,
)
from .errors import ConfigError, FlavorError
from .report import Report
from .scalars import CPoly, Fraction, monomials_upto, pbw_indices
from .series import HLaurent, LaurentSum

__all__ = [
    "JetContext", "JetElement", "jet_pair", "jet_product", "jet_product_eval",
    "jet_source_target", "jet_counit", "jet_coproduct_functional",
    "tensor_functional_from_pair", "jet_axiom_suite", "xi_functional",
    "divided_xi_powers", "coordinate_functional", "unit_functional",
    "jets_equal", "jet_commutator", "pbw_indices",
]

LEFT, RIGHT = "left", "right"


class JetContext:
    """A deformed algebroid together with a dual flavor and jet degree.

    ``_memos`` (``envelope.memo``) holds what depends on the context
    alone, never on a functional: per PBW index beta, an entry of the
    shape ``_image`` keeps, (the constant series e^beta, the rows of each
    product m . e^beta met and their support), read by
    ``jet_coproduct_functional`` (``_monomial``), and per degree, the
    lifts of the PBW indices up to it and their transpose
    (``_transpose``).  Each context fills its own, so a left and a right
    context on one deformation, or contexts on two deformations of one
    structure, never read each other's entries.
    """

    def __init__(self, dfa, flavor, jet_degree):
        if flavor not in (LEFT, RIGHT):
            raise FlavorError("flavor must be %r or %r" % (LEFT, RIGHT))
        if jet_degree < 1:
            raise ConfigError("jet degree must be >= 1")
        self.dfa = dfa
        self.flavor = flavor
        self.jet_degree = jet_degree
        self._zero = HLaurent.zero_upto(dfa.order, CPoly.zero(dfa.spec.nvars))
        self._memos = defaultdict(dict)

    @property
    def spec(self):
        return self.dfa.spec

    @property
    def order(self):
        return self.dfa.order

    def zero_poly(self):
        return self._zero.zero

    def zero_value(self):
        """zero up to the truncation order: one shared instance, as an
        ``HLaurent`` never changes."""
        return self._zero


class JetElement:
    """Sparse value table {beta: HLaurent base value}; absent keys are zero.

    ``_memos`` (``envelope.memo``) holds two tables.  ``_pair_mono`` maps
    ``(ctx, w)``, w an impure basis monomial x^gamma e^alpha (gamma != 0),
    to the pairing with w; a pure e^alpha is a read of ``table``
    (``_pair_leg``).  ``_image``
    maps ``(ctx, w, lift)`` to the image entry: a first pairing with w
    mapped by s_F or t_F, None where it vanishes, and the product rows of
    that image by each basis monomial met, with their support.  ``lift``
    tells the two transposes apart: w a paired leg of a coproduct lift
    (dual product) or w = e^beta paired as the first factor of a tensor
    functional.  The context comes first in every key (the key keeps it
    alive, so a later context never reuses an entry), and a cached zero
    is that context's own ``zero_value()``.  No entry refers to another
    functional: the values are base series and envelope rows, and a dual
    product keeps no pairing of its partner, so a functional never keeps
    a partner alive.

    The table must not change after construction.
    """

    __slots__ = ("flavor", "table", "_memos")

    def __init__(self, flavor, table=None):
        self.flavor = flavor
        self.table = {b: v for b, v in (table or {}).items()
                      if not v.is_zero()}
        self._memos = defaultdict(dict)

    def value(self, ctx, beta):
        v = self.table.get(tuple(beta))
        return v if v is not None else ctx.zero_value()

    def add(self, other):
        if self.flavor != other.flavor:
            raise FlavorError("mixed dual flavors")
        return JetElement(self.flavor, table_sum((self.table, other.table)))

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return JetElement(self.flavor, {b: -v for b, v in self.table.items()})

    def scale(self, c):
        c = Fraction(c)
        return JetElement(self.flavor,
                          {b: v.map(lambda t: t * c)
                           for b, v in self.table.items()})

    def shift(self, k):
        """Multiply by h^k (k may be negative: Laurent rescaling)."""
        return JetElement(self.flavor,
                          {b: v.shift(k) for b, v in self.table.items()})

    def __repr__(self):
        keys = sorted(self.table)
        return "Jet<%s>{%s}" % (self.flavor, ", ".join(
            "%s: %r" % (b, self.table[b]) for b in keys))


def jets_equal(ctx, a, b):
    """Value-by-value equality on the shared certified window."""
    return tensor_tables_equal(ctx, a.table, b.table)


# -- constructors -----------------------------------------------------------------


def xi_functional(ctx, i):
    """Dual of the i-th generator: value 1 on e_i, zero elsewhere."""
    beta = [0] * ctx.spec.rank
    beta[i] = 1
    one = HLaurent.const(CPoly.one(ctx.spec.nvars), ctx.order, ctx.zero_poly())
    return JetElement(ctx.flavor, {tuple(beta): one})


def divided_xi_powers(ctx, degree):
    """{kappa: xi^kappa / kappa!} for |kappa| <= degree, each power the
    iterated dual product of the xi_i in generator order, tabulated at
    ``degree``."""
    rank = ctx.spec.rank
    gens = [xi_functional(ctx, i) for i in range(rank)]
    powers = {}
    for kappa in pbw_indices(rank, degree):
        prod = unit_functional(ctx)
        fact = 1
        for i in range(rank):
            for t in range(kappa[i]):
                prod = jet_product(ctx, prod, gens[i], degree)
                fact *= t + 1
        powers[kappa] = prod.scale(Fraction(1, fact))
    return powers


def coordinate_functional(ctx, j):
    """Value x_j on the unit, zero on every higher monomial."""
    xj = HLaurent.const(CPoly.var(ctx.spec.nvars, j), ctx.order, ctx.zero_poly())
    return JetElement(ctx.flavor, {(0,) * ctx.spec.rank: xj})


def unit_functional(ctx):
    """The counit as a dual element: the unit of the dual ring."""
    one = HLaurent.const(CPoly.one(ctx.spec.nvars), ctx.order, ctx.zero_poly())
    return JetElement(ctx.flavor, {(0,) * ctx.spec.rank: one})


def jet_counit(ctx, lam):
    """The dual counit: lam evaluated on the unit."""
    return lam.value(ctx, (0,) * ctx.spec.rank)


# -- pairing ----------------------------------------------------------------------


def _support(ctx, monos, flavor):
    """The indices a table of dual ``flavor`` must hold for the pairing of
    a sum of the basis monomials (gamma, alpha) to be nonzero, each once,
    as a tuple: alpha for a pure monomial, the deformation's
    ``pairing_support`` of an impure one; None when that is None."""
    side = "source" if flavor == LEFT else "target"
    out = {}
    for gamma, alpha in monos:
        if not any(gamma):
            out[alpha] = None
            continue
        support = ctx.dfa.pairing_support((gamma, alpha), side)
        if support is None:
            return None
        out.update(dict.fromkeys(support))
    return tuple(out)


def _misses(lam, support):
    """True when a ``_support`` is known and holds no key of lam's table:
    every monomial of the sum then pairs to the shared zero (a pure e^alpha
    reads lam's value at alpha, which is not a key; an impure one skips
    its decomposition in ``_pair_mono``)."""
    return support is not None and lam.table.keys().isdisjoint(support)


def _pair_leg(lam, ctx, i):
    """lam on the basis monomial with leg id i: a pure e^alpha reads lam's
    table, lam.value(ctx, alpha), and keeps no memo entry; an impure one
    is its memoised pairing (``_pair_mono``)."""
    key = LEGS[i]
    if PURE[i] == i:
        return lam.value(ctx, key[1])
    return _pair_mono(lam, ctx, key)


@memo
def _pair_mono(lam, ctx, key):
    """lam on an impure basis monomial x^gamma e^alpha (gamma != 0), via
    the flavor decomposition, a memo entry of lam.  A pairing that is the
    empty window up to the truncation order is the shared
    ``ctx.zero_value()``, which ``_pair_rows`` skips.

    Without an impure term, the keys of the decomposition of x^gamma
    e^alpha are among the indices delta of the terms of e^beta e^alpha,
    e^beta over the decomposition of x^gamma, its ``_support``.  When that
    misses lam's table, lam vanishes on every key, the sum below would add
    nothing and its value would be the shared zero, so that is returned
    without building the decomposition."""
    if _misses(lam, _support(ctx, (key,), lam.flavor)):
        return ctx.zero_value()
    dec = ctx.dfa.decompose_mono(
        key, "source" if lam.flavor == LEFT else "target")
    acc = LaurentSum(ctx.zero_poly(), ctx.order)
    for beta, aser in dec.items():
        lv = lam.value(ctx, beta)
        if lv.is_zero():
            continue
        al = HLaurent.from_hseries(aser)
        if lam.flavor == LEFT:
            acc.add_product(al, lv, ctx.dfa.star_coeffs, ctx.order)
        else:
            acc.add_product(lv, al, ctx.dfa.star_coeffs, ctx.order)
    out = acc.value()
    if not out.coeffs and out.top == ctx.order:
        return ctx.zero_value()
    return out


def _pair_rows(ctx, lam, rows, top, support=None):
    """sum_q h^q lam(row_q) for a sequence of rows (q, num, den) in
    increasing q, num an element's numerators by leg id over den, an
    empty row adding nothing: the one reader of a row sum's value and
    window.  The pairing of each row, as of a plain element, starts from
    zero up to the truncation order N before its shift, so the one sum
    starts from zero up to N + q0, q0 the first q with a term; with no
    terms it is zero up to ``top``.

    Each term pairs through ``_pair_leg``, so a pure one reads lam's
    table, and a pairing that is the shared zero is skipped: at a shift q
    at or above q0, its empty window [N+q+1, N+q] lowers neither the sum's
    valuation nor its top.  When ``support``, the rows' ``_support``,
    misses lam's table (``_misses``) every term pairs to the shared zero,
    so the sum is its start, zero up to N + q0, returned without pairing
    (as the shared ``ctx.zero_value()`` when q0 = 0)."""
    for q0, num, _ in rows:
        if num:
            break
    else:
        return HLaurent.zero_upto(top, ctx.zero_poly())
    if _misses(lam, support):
        return ctx.zero_value() if q0 == 0 \
            else HLaurent.zero_upto(ctx.order + q0, ctx.zero_poly())
    zero = ctx.zero_value()
    acc = LaurentSum(ctx.zero_poly(), ctx.order + q0)
    for q, num, den in rows:
        for i, c in num.items():
            v = _pair_leg(lam, ctx, i)
            if v is not zero:
                acc.add(v, c if den == 1 else Fraction(c, den), q)
    return acc.value()


def _product_rows(spec, W, m, mono_right=True):
    """The nonempty rows (q, num, den) of W . m (``mono_right``) or m . W,
    for a Laurent series W of elements and a basis monomial key m, in
    increasing q: each order's product (``envelope._mul_mono_into``) as
    an element's numerators by leg id and denominator."""
    out = []
    key = leg_id(m)
    for q, w in enumerate(W.coeffs, W.val):
        if w.num:
            p = _element(spec.nvars, spec.rank,
                         _mul_mono_into({}, spec, w, key, 1, mono_right), w.den)
            if p.num:
                out.append((q, p.num, p.den))
    return out


def jet_pair(ctx, lam, u):
    """<lam, u> for u a DefEnvElement, an ``HSeries`` of normal-form
    elements: each order q read as the row (q, numerators, denominator) of
    its normal form, and the rows' pairings shifted by q and summed from
    zero up to the truncation order (``_pair_rows``, k[[h]]-linearity)."""
    return _pair_rows(ctx, lam, [(q, w.num, w.den)
                                 for q, w in enumerate(u.coeffs)], u.order)


def _apply_series_map(ctx, val, mapper):
    """Turn a base-valued Laurent into an envelope-valued one through a
    base-to-envelope series map (source or target), each order's images
    summed over one denominator (``envelope._series_image``)."""
    spec = ctx.spec
    val_top = min(val.top, ctx.order + val.val)
    return HLaurent(val.val, val_top, _series_image(
        spec, mapper, val.coeffs, val_top - val.val + 1),
        EnvElement.zero(spec.nvars, spec.rank))


# -- dual product ------------------------------------------------------------------


def _tabulate(ctx, fn, degree=None):
    degree = degree if degree is not None else ctx.jet_degree
    table = {}
    for beta in pbw_indices(ctx.spec.rank, degree):
        v = fn(beta)
        if not v.is_zero():
            table[beta] = v
    return table


@memo
def _transpose(ctx, degree):
    """(indices, lifts, pairs) for the context and ``degree``, built once
    per context and degree (a memo entry of the context).  ``indices`` is
    ``pbw_indices(rank, degree)`` and ``lifts[p]`` the orders of the lift
    of indices[p] (``lift_mono``).  ``pairs`` maps the leg id of each
    paired leg w (u_(2) for the left dual, u_(1) for the right) to {the
    key of leg ids of a lift term that holds w with another leg o: the
    increasing tuple of the positions p with that key in lifts[p]}.  A
    pair is met in about one index, so the positions are kept sparse: a
    bitmask per pair would grow with the index count (176 MB of masks for
    ``dualize`` on axb widened to rank 12).  The orders and coefficients
    of a pair's terms are read back from lifts[p] (``_scatter``), which
    the deformation caches anyway: a tuple per term held about a fifth
    more memory there."""
    spec = ctx.spec
    zeros = (0,) * spec.nvars
    leg = 1 if ctx.flavor == LEFT else 0
    indices = pbw_indices(spec.rank, degree)
    lifts = [ctx.dfa.lift_mono((zeros, beta)).coeffs for beta in indices]
    found = {}
    for p, lift in enumerate(lifts):
        for Tk in lift:
            for pair in Tk.num:
                row = found.get(pair[leg])
                if row is None:
                    row = found[pair[leg]] = {}
                at = row.get(pair)
                if at is None:
                    row[pair] = [p]
                elif at[-1] != p:
                    at.append(p)
    return indices, lifts, {w: {pair: tuple(at) for pair, at in row.items()}
                            for w, row in found.items()}


def _scatter(acc, P, lift, pair):
    """Add c h^k P to the sum acc for each term c h^k of the lift orders
    ``lift`` on the pair of leg ids ``pair``."""
    for k, Tk in enumerate(lift):
        c = Tk.num.get(pair)
        if c is not None:
            acc.add(P, Fraction(c, Tk.den), k)


@memo
def _image(lam, ctx, w, lift):
    """lam's image memo entry for the basis monomial w: (W, rows), W a
    first pairing of lam with w mapped into the envelope or None when that
    vanishes, and rows {m: (the ``_product_rows`` of W and m, their
    ``_support``)}, filled by ``_pair_image``.  With ``lift`` (a dual
    product), w is a paired lift leg, W = t_F(lam(w)) (left dual) or
    s_F(lam(w)) (right) and the products are W . m.  Without (a tensor
    functional), w = e^beta, W = s_F(lam(e^beta)) (left) or t_F (right),
    the pairing seen through a plain element's window (one unit term at
    order 0 in ``_pair_rows``, which cuts a top above N where
    ``_pair_mono`` does not), and the products m . W."""
    if lift:
        v = _pair_leg(lam, ctx, leg_id(w))
    else:
        v = _pair_rows(ctx, lam, [(0, {leg_id(w): 1}, 1)], ctx.order)
    if v.is_zero():
        return None, {}
    left = lam.flavor == LEFT
    return _apply_series_map(
        ctx, v, ctx.dfa.target if left == lift else ctx.dfa.source), {}


@memo
def _monomial(ctx, beta):
    """The context's entry (W, rows) for the PBW index beta, of the shape
    ``_image`` keeps: W the constant series e^beta up to the truncation
    order, rows filled by ``_pair_image``."""
    spec = ctx.spec
    return (HLaurent.const(EnvElement.monomial(spec.nvars, spec.rank, beta),
                           ctx.order, EnvElement.zero(spec.nvars, spec.rank)),
            {})


def _pair_image(ctx, mu, image, m, right):
    """mu(W . m) when ``right`` (m multiplies W on the right), mu(m . W)
    otherwise, for image = (W, rows) with W not None: an entry of
    ``_image`` (``right`` is its ``lift``), of ``_monomial``, or a fresh
    (W, {}).  An entry is read with one ``right`` and functionals of one
    flavor, as the rows of the product and their support are kept in rows
    on first use.  The value is ``_pair_rows`` of those rows up to W.top,
    which reads their support to skip a pairing that misses mu's table."""
    W, rows = image
    hit = rows.get(m)
    if hit is None:
        r = _product_rows(ctx.spec, W, m, right)
        hit = rows[m] = (r, _support(ctx, (
            LEGS[i] for _, num, _ in r for i in num), mu.flavor))
    r, support = hit
    return _pair_rows(ctx, mu, r, W.top, support)


def jet_product_eval(ctx, lam, mu, arg):
    """(lam mu) evaluated on one monomial, through the coproduct lift.

    Left dual:  (phi phi')(u) = phi'( t_F(phi(u_(2))) . u_(1) ).
    Right dual: (psi psi')(u) = psi'( s_F(psi(u_(1))) . u_(2) ).

    Each term c h^k w1 (x) w2 of the lift adds c h^k mu(W . o), o the leg
    lam does not pair with and W the mapped image of lam on the other, or
    nothing where lam vanishes on it.  The mapped image of each paired
    leg and its product rows with each other leg depend on lam alone and
    live in lam's memo (``_image``), so every partner mu reads the same
    rows.  Every piece is added, zeros included, as each narrows the
    window of the value.  lam and mu must be of the context's flavor,
    which picks the paired leg.

    No command calls it: ``jet_product`` tabulates the same values.  It
    stays because the benchmark's value fingerprint hashes it and its
    tracer wraps it (``tests/test_exports.py``).
    """
    if not lam.flavor == mu.flavor == ctx.flavor:
        raise FlavorError("mixed dual flavors")
    spec = ctx.spec
    if isinstance(arg, tuple) and (not arg or not isinstance(arg[0], tuple)):
        arg = ((0,) * spec.nvars, tuple(arg))
    leg = 1 if ctx.flavor == LEFT else 0
    acc = LaurentSum(ctx.zero_poly())
    for k, Tk in enumerate(ctx.dfa.lift_mono(arg).coeffs):
        for pair, c in Tk.num.items():
            image = _image(lam, ctx, LEGS[pair[leg]], True)
            if image[0] is not None:
                acc.add(_pair_image(ctx, mu, image, LEGS[pair[1 - leg]], True),
                        Fraction(c, Tk.den), k)
    if acc.top is None:
        # no lift term survived
        return ctx.zero_value()
    return acc.value()


def jet_product(ctx, lam, mu, degree=None):
    """The dual product tabulated on the PBW indices up to ``degree`` (the
    jet degree by default), in ``pbw_indices`` order, zeros left out.

    The product is the transpose of the lift, read in one pass over the
    pairs (w, o) of the transpose (``_transpose``): the value at an index
    is the sum of c h^k P(w, o) over the terms c h^k of its lift whose
    paired leg w lam does not vanish on, P(w, o) = mu(W . o) computed once
    per pair (``_pair_image``), so it is what ``jet_product_eval`` gives.
    Each nonzero factor goes straight into the sum of every index the
    pair lists, the first one creating it.  A zero factor only narrows a
    window, and the value and window of a ``LaurentSum`` do not depend on
    the order of its pieces, so the zero factors are added afterwards,
    into the sums that exist.  An index no nonzero factor reaches is zero
    and left out, as is any index whose pieces cancel.  lam and mu must be
    of the context's flavor, which picks the paired leg of the transpose.
    """
    if not lam.flavor == mu.flavor == ctx.flavor:
        raise FlavorError("mixed dual flavors")
    other = 0 if ctx.flavor == LEFT else 1
    indices, lifts, pairs = _transpose(
        ctx, ctx.jet_degree if degree is None else degree)
    sums, zeros = {}, []
    for w, others in pairs.items():
        image = _image(lam, ctx, LEGS[w], True)
        if image[0] is None:
            continue
        for pair, positions in others.items():
            P = _pair_image(ctx, mu, image, LEGS[pair[other]], True)
            if P.is_zero():
                zeros.append((P, pair, positions))
                continue
            for p in positions:
                acc = sums.get(p)
                if acc is None:
                    acc = sums[p] = LaurentSum(ctx.zero_poly())
                _scatter(acc, P, lifts[p], pair)
    for P, pair, positions in zeros:
        for p in positions:
            acc = sums.get(p)
            if acc is not None:
                _scatter(acc, P, lifts[p], pair)
    table = {}
    for p in sorted(sums):
        v = sums[p].value()
        if not v.is_zero():
            table[indices[p]] = v
    return JetElement(lam.flavor, table)


def jet_commutator(ctx, a, b, degree=None):
    """The tabulated commutator ab - ba."""
    return jet_product(ctx, a, b, degree).sub(jet_product(ctx, b, a, degree))


# -- dual source/target maps ---------------------------------------------------------


def _base_image(ctx, a):
    """t_F(a) for the left dual, s_F(a) for the right dual."""
    return (ctx.dfa.target if ctx.flavor == LEFT else ctx.dfa.source)(a)


def jet_source_target(ctx, a, degree=None):
    """The dual source and target images of a base element, per flavor.

    Left dual:  source(a)(u) = eps(t_F(a) u),   target(a)(u) = eps(u t_F(a)).
    Right dual: source(a)(u) = eps(u s_F(a)),   target(a)(u) = eps(s_F(a) u).
    Returns (source, target) as JetElements of the context flavor.

    Neither product is built.  The counit of a normal-form element is
    its e^0 coefficient.  Every term of x^g e^a . e^beta with a + beta !=
    0, and of e^beta . x^g e^a with a != 0, keeps a generator: the leg
    table's rules only reorder generators, trade a pair for the generators
    of its bracket, or let a generator act on a coordinate.  So the table
    of image . e^beta has the one entry beta = 0, the e^0 coefficient of
    each order of the image, and the counit of e^beta . image is e^beta
    acting through the anchor on that coefficient, read from the
    structure's action table (``envelope._act_into``).
    """
    degree = ctx.jet_degree if degree is None else degree
    spec = ctx.spec
    zeros, unit = (0,) * spec.nvars, (0,) * spec.rank
    zero = ctx.zero_poly()
    base = [w.terms.get(unit) for w in _base_image(ctx, a).coeffs]

    def acted(beta):
        return HLaurent(0, ctx.order, [
            zero if c is None
            else CPoly(spec.nvars, _act_into({}, spec, (zeros, beta), c, 1))
            for c in base], zero)

    table = _tabulate(ctx, acted, degree)
    at_unit = JetElement(ctx.flavor, {unit: table[unit]}
                         if unit in table else {})
    tabulated = JetElement(ctx.flavor, table)
    return (at_unit, tabulated) if ctx.flavor == LEFT \
        else (tabulated, at_unit)


# -- dual coproduct (functional level) -------------------------------------------------


def jet_coproduct_functional(ctx, lam, degree=None):
    """Table (beta, beta') -> lam(e^beta e^beta') (left) or lam(e^beta' e^beta)
    (right): the transpose of the (opposite) multiplication, tabulated by
    ``_pair_table`` with each first pairing's image replaced by the basis
    monomial itself (``_monomial``).  The context keeps the rows of each
    product and their support for its own flavor, so lam must be of that
    flavor."""
    if lam.flavor != ctx.flavor:
        raise FlavorError("mixed dual flavors")
    return _pair_table(ctx, lam, lambda beta: _monomial(ctx, beta), degree)


def _index_pairs(rank, degree):
    """[(b1, [b2 with |b1| + |b2| <= degree])] over the PBW indices b1 of
    degree at most ``degree``, both in ``pbw_indices`` order.  The index
    list is built once; as it is sorted by (degree, tuple), each range of
    b2 is a prefix of it."""
    idx = pbw_indices(rank, degree)
    sums = [sum(b) for b in idx]
    return [(b1, idx[:bisect_right(sums, degree - s)])
            for b1, s in zip(idx, sums)]


def _pair_table(ctx, reader, image, degree):
    """{(b1, b2): reader(e^moved . W)} over ``_index_pairs`` up to
    ``degree`` (the jet degree by default), zeros left out, where (paired,
    moved) is (b2, b1) for the left dual and (b1, b2) for the right and
    image(paired) = (W, rows) is an entry read by ``_pair_image``.  An
    entry whose W is None is zero and skipped, and so is one whose rows'
    support misses reader's table (``_pair_image``)."""
    degree = degree if degree is not None else ctx.jet_degree
    zeros = (0,) * ctx.spec.nvars
    zero = ctx.zero_value()
    left = ctx.flavor == LEFT
    pairs = _index_pairs(ctx.spec.rank, degree)
    images = {beta: image(beta) for beta, _ in pairs}
    out = {}
    for b1, inner in pairs:
        for b2 in inner:
            paired, moved = (b2, b1) if left else (b1, b2)
            entry = images[paired]
            if entry[0] is None:
                continue
            val = _pair_image(ctx, reader, entry, (zeros, moved), False)
            if val is not zero and not val.is_zero():
                out[(b1, b2)] = val
    return out


def tensor_functional_from_pair(ctx, lam, mu, degree=None):
    """The pair lam (x) mu as a functional table on (beta, beta').

    Left dual:  (lam (x) mu)(u (x) u') = mu( u . s_F(lam(u')) ).
    Right dual: (lam (x) mu)(u (x) u') = lam( u' . t_F(mu(u)) ).

    The first pairing, lam(u') or mu(u), its image under s_F or t_F and
    the rows of each product e^moved . image depend on the first
    functional alone, so they live in its memo (``_image``) and every call
    reads them; the second functional reads them through ``_pair_table``.
    Every functional must be of the context's flavor, which picks the map.
    """
    if not lam.flavor == mu.flavor == ctx.flavor:
        raise FlavorError("mixed dual flavors")
    zeros = (0,) * ctx.spec.nvars
    first, second = (lam, mu) if ctx.flavor == LEFT else (mu, lam)
    return _pair_table(ctx, second, lambda beta: _image(
        first, ctx, (zeros, beta), False), degree)


def table_sum(tables):
    """Key-wise sum of an iterable of value tables; a key missing from a
    table is zero."""
    out = {}
    for table in tables:
        for key, v in table.items():
            cur = out.get(key)
            out[key] = v if cur is None else cur + v
    return out


def tensor_tables_equal(ctx, A, B):
    keys = set(A) | set(B)
    zero = ctx.zero_value()
    for k in keys:
        if not A.get(k, zero).eq_to_order(B.get(k, zero)):
            return False
    return True


# -- axioms -----------------------------------------------------------------------------


def jet_axiom_suite(ctx, sample_degree=2, witnesses=()):
    """Dual-ring axioms, action compatibilities, filtration growth and the
    classical limit, at the context truncation."""
    spec = ctx.spec
    n = ctx.order
    report = Report("jet-axioms", {"h_order": n, "jet_degree": ctx.jet_degree,
                                   "flavor": ctx.flavor})
    unit = unit_functional(ctx)
    gens = [xi_functional(ctx, i) for i in range(spec.rank)]
    coords = [coordinate_functional(ctx, j) for j in range(spec.nvars)]
    sample = gens + coords[:1]
    polys = monomials_upto(spec.nvars, 1)[1:]  # the variables
    # the action, commutativity and classical-limit checks read their
    # products only on dom, so those are tabulated at dom's degree
    dom_degree = min(ctx.jet_degree, sample_degree)
    dom = pbw_indices(spec.rank, dom_degree)

    report.check("dual-unit", sample, lambda lam: (
        None if jets_equal(ctx, jet_product(ctx, lam, unit), lam)
        and jets_equal(ctx, jet_product(ctx, unit, lam), lam)
        else "counit is not a two-sided unit"))

    top = min(2, ctx.jet_degree)
    checked = pbw_indices(spec.rank, top)
    # (ab)c and a(bc) read ab and bc on the legs of the lifts of the checked
    # monomials, which reach above the jet degree when h_order is larger
    reach = max([ctx.jet_degree] + [
        sum(LEGS[i][1]) for beta in checked
        for T in ctx.dfa.lift_mono(((0,) * spec.nvars, beta)).coeffs
        for key in T.num for i in key])
    pool = sample[:2]
    pairs = {(i, j): jet_product(ctx, pool[i], pool[j], degree=reach)
             for i in range(len(pool)) for j in range(len(pool))}

    def associativity_failure(ijk):
        i, j, k = ijk
        lhs = jet_product(ctx, pairs[i, j], pool[k], top)
        rhs = jet_product(ctx, pool[i], pairs[j, k], top)
        for beta in checked:
            if not lhs.value(ctx, beta).eq_to_order(rhs.value(ctx, beta)):
                return "associativity fails on %s" % (beta,)

    report.check("dual-associativity",
                 itertools.product(range(len(pool)), repeat=3),
                 associativity_failure)

    zeros = (0,) * spec.nvars

    def action_failure(xj):
        src, tgt = jet_source_target(ctx, xj)
        image = (HLaurent.from_hseries(_base_image(ctx, xj)), {})
        for lam in sample:
            left_action = jet_product(ctx, src, lam, dom_degree)
            for beta in dom:
                direct = _pair_image(ctx, lam, image, (zeros, beta),
                                     ctx.flavor == LEFT)
                if not left_action.value(ctx, beta).eq_to_order(direct):
                    return "source-action compatibility fails at %s" % (beta,)

    report.check("action-compatibility", polys, action_failure)

    # every ordered product of the sample, read by the commutativity and
    # classical-limit checks
    prods = {(i, j): jet_product(ctx, lam, mu, dom_degree)
             for i, lam in enumerate(sample) for j, mu in enumerate(sample)}

    def commutativity_failure(ij):
        prod, flip = prods[ij], prods[ij[::-1]]
        for beta in dom:
            dn = (prod.value(ctx, beta) - flip.value(ctx, beta)).normalize()
            if dn.coeffs and dn.val < 1:
                return "dual ring not commutative at h^0 on %s" % (beta,)

    report.check("commutative-at-h0", prods, commutativity_failure)

    def filtration_failure(u0):
        for r in range(1, min(3, n) + 1):
            for combo in itertools.product(range(len(gens)), repeat=r):
                prod = gens[combo[0]]
                for idx in combo[1:]:
                    prod = jet_product(ctx, prod, gens[idx],
                                       degree=ctx.jet_degree)
                norm = jet_pair(ctx, prod, u0).normalize()
                if norm.coeffs and norm.val < r:
                    return "filtration pairing below h^%d on %s" % (r, combo)

    report.check("filtration-growth", witnesses, filtration_failure)

    # classical limit: at h^0 the product table is the undeformed one
    triv = DeformedEnvAlgebroid(spec, trivial_twistor(spec, n), validate=False)
    ctx0 = JetContext(triv, ctx.flavor, ctx.jet_degree)

    def classical_failure(i):
        lam0 = xi_functional(ctx0, i)
        for j in range(len(gens)):
            mu0 = xi_functional(ctx0, j)
            prod = prods[i, j]
            prod0 = jet_product(ctx0, lam0, mu0, dom_degree)
            for beta in dom:
                if prod.value(ctx, beta).coeff(0) != prod0.value(ctx0, beta).coeff(0):
                    return "classical limit mismatch at %s" % (beta,)

    report.check("classical-limit", range(len(gens)), classical_failure)
    return report
