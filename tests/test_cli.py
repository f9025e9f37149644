import ast
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from qgroupoid import cli, deform, drinfeld, envelope, jets, tensorspace
from qgroupoid.cli import main
from qgroupoid.scalars import pbw_indices
from qgroupoid.series import HSeries

import oracles
from oracles import impure_leg_product

ROOT = os.path.join(os.path.dirname(__file__), "..")
SPEC = os.path.join(ROOT, "specs", "axb.spec")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def parse_lines(payload):
    return [json.loads(line) for line in payload.strip().splitlines()]


def test_example_axb_small():
    code, out, err = run_cli(["example", "axb", "--h-order", "2",
                              "--jet-degree", "2", "--n-max", "2"])
    assert code == 0
    lines = parse_lines(out)
    assert lines[0]["report"] == "example-axb"
    assert lines[0]["params"]["h_order"] == 2
    assert lines[-1]["verdict"] == "pass"
    assert "[pass]" in err


def test_example_axb_deterministic():
    argv = ["example", "axb", "--h-order", "2", "--jet-degree", "2",
            "--n-max", "2", "--seed", "3", "--json-only"]
    code1, out1, err1 = run_cli(argv)
    code2, out2, err2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2 == ""


def test_validate_subcommand():
    code, out, _ = run_cli(["validate", SPEC, "--json-only"])
    assert code == 0
    assert parse_lines(out)[-1]["verdict"] == "pass"


def test_validate_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("""
[base]
vars =

[generators]
rank = 3

[bracket]
c 1 2 3 = 1
c 2 3 1 = 1
c 1 3 1 = 1

[truncation]
h_order = 2
jet_degree = 2
n_max = 2
""")
    code, out, _ = run_cli(["validate", str(bad), "--json-only"])
    assert code == 1
    lines = parse_lines(out)
    assert lines[-1]["verdict"] == "fail"
    failing = [l for l in lines if l.get("status") == "fail"]
    assert failing and any("witness" in l for l in failing)


def test_twist_subcommand():
    code, out, _ = run_cli(["twist", SPEC, "--h-order", "2", "--json-only"])
    assert code == 0
    assert parse_lines(out)[-1]["verdict"] == "pass"


def test_dualize_subcommand():
    code, out, _ = run_cli(["dualize", SPEC, "--side", "left",
                            "--h-order", "2", "--jet-degree", "2",
                            "--json-only"])
    assert code == 0
    lines = parse_lines(out)
    assert any(l["check"].startswith("relation/") for l in lines[1:-1])


@pytest.mark.parametrize("argv, solves", [
    (["example", "axb", "--json-only"], 6),
    (["dualize", SPEC, "--json-only"], 2),
])
def test_one_triangular_solve_per_base_monomial(argv, solves, monkeypatch):
    """The pairings decompose each x^gamma e^alpha through x^gamma alone:
    one ``basis_decompose`` per distinct (flavor, x^gamma) decomposed.  A
    whole-monomial solve per pairing key would make 119 and 51."""
    real_solve = deform.basis_decompose
    real_mono = deform.DeformedEnvAlgebroid.decompose_mono
    solved, bases = [], set()

    def solve(dfa, u, flavor):
        solved.append(flavor)
        return real_solve(dfa, u, flavor)

    def decompose_mono(dfa, key, flavor):
        bases.add((flavor, key[0]))
        return real_mono(dfa, key, flavor)

    monkeypatch.setattr(deform, "basis_decompose", solve)
    monkeypatch.setattr(deform.DeformedEnvAlgebroid, "decompose_mono",
                        decompose_mono)
    code, _, _ = run_cli(argv)
    assert code == 0
    assert len(solved) == len(bases) == solves


def test_every_cache_is_a_memo_entry(monkeypatch):
    """After ``example axb`` at 2/2 the deformation, both contexts and
    the structure keep every table in one dict each, ``_memos``, beside
    the structure's product table ``_leg_table``; and after dual products,
    tensor functionals and coproduct functionals on both contexts, so does
    each functional, beside its value ``table``.  The twistor is its
    series, which holds no dict: what it derives is the deformation's.
    Each table of ``_memos``
    is named after a function that ``envelope.memo`` wraps and is keyed by
    argument tuples."""
    real, bundles = cli.build_axb, []

    def build_axb(h_order, jet_degree):
        bundles.append(real(h_order, jet_degree))
        return bundles[-1]

    monkeypatch.setattr(cli, "build_axb", build_axb)
    code, _, _ = run_cli(["example", "axb", "--h-order", "2",
                          "--jet-degree", "2", "--json-only"])
    assert code == 0
    b, = bundles
    functionals = []
    for ctx in (b.left, b.right):
        lam = jets.xi_functional(ctx, 0).add(jets.coordinate_functional(ctx, 1))
        mu = jets.xi_functional(ctx, 1)
        jets.jet_product(ctx, lam, mu)
        jets.tensor_functional_from_pair(ctx, lam, mu)
        jets.jet_coproduct_functional(ctx, lam)
        functionals += [lam, mu]
    assert type(b.dfa.twistor) is HSeries
    for owner in (b.dfa, b.left, b.right, b.dfa.spec, *functionals):
        if isinstance(owner, jets.JetElement):
            dicts = {name for name in jets.JetElement.__slots__
                     if isinstance(getattr(owner, name), dict)}
            want = {"_memos", "table"}
        else:
            dicts = {name for name, v in vars(owner).items()
                     if isinstance(v, dict)}
            want = {"_memos", "_leg_table"} if owner is b.dfa.spec \
                else {"_memos"}
        assert dicts == want
        assert owner._memos
        for name, table in owner._memos.items():
            assert any(hasattr(getattr(where, name, None), "__wrapped__")
                       for where in (type(owner), envelope, tensorspace,
                                     deform, drinfeld, jets)), name
            assert table and all(type(k) is tuple for k in table), name


def test_first_pairings_are_mapped_once_per_index(monkeypatch):
    """On ``example axb`` at N=4 the first pairing of a tensor functional
    (``_pair_rows`` on one unit term, called by ``_image``) runs once per
    (functional, context, index) across all ``tensor_functional_from_pair``
    calls, and ``_apply_series_map`` once per such key whose pairing is
    nonzero: both live on the first functional (``_image``).  Every call
    finds an entry for each of its indices.  Pairing once per call made
    504 first pairings on ``example axb`` at N=6, where 308 keys were
    distinct."""
    real_tf = jets.tensor_functional_from_pair
    real_pair, real_map = jets._pair_rows, jets._apply_series_map
    active, calls, paired, mapped = [], [], Counter(), []
    keep = []

    def tensor_functional_from_pair(ctx, lam, mu, degree=None):
        first = lam if ctx.flavor == jets.LEFT else mu
        keep.append(first)
        active.append((ctx, first))
        try:
            return real_tf(ctx, lam, mu, degree)
        finally:
            active.pop()
            calls.append((ctx, first, degree))

    def pair_rows(ctx, lam, rows, top, support=None):
        v = real_pair(ctx, lam, rows, top, support)
        if active and sys._getframe(1).f_code.co_name == "_image":
            assert active[-1] == (ctx, lam)
            (q, num, den), = rows
            (i, c), = num.items()
            gamma, alpha = envelope.LEGS[i]
            assert q == 0 and top == ctx.order and (c, den) == (1, 1)
            assert gamma == (0, 0)
            paired[id(lam), ctx, alpha] += 1
            if not v.is_zero():
                mapped.append(None)
        return v

    def apply_series_map(ctx, val, mapper):
        if active:
            mapped.pop()
        return real_map(ctx, val, mapper)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("qgroupoid") and \
                getattr(module, "tensor_functional_from_pair", None) is real_tf:
            monkeypatch.setattr(module, "tensor_functional_from_pair",
                                tensor_functional_from_pair)
    monkeypatch.setattr(jets, "_pair_rows", pair_rows)
    monkeypatch.setattr(jets, "_apply_series_map", apply_series_map)
    code, _, _ = run_cli(["example", "axb", "--json-only"])
    assert code == 0
    assert paired and set(paired.values()) == {1}
    # every nonzero first pairing was mapped, once
    assert mapped == []
    for ctx, first, degree in calls:
        degree = ctx.jet_degree if degree is None else degree
        zeros = (0,) * ctx.spec.nvars
        assert first.flavor == ctx.flavor
        assert all((ctx, (zeros, beta), False) in first._memos["_image"]
                   for beta in pbw_indices(ctx.spec.rank, degree))
    # a first functional meets several calls, and some first pairing
    # vanishes, so its index is left unmapped
    assert len(calls) > len({id(first) for _, first, _ in calls})
    assert any(W is None for first in keep
               for (_, _, lift), (W, _) in first._memos["_image"].items()
               if not lift)


def test_entry_rows_are_built_once_per_context(monkeypatch):
    """On ``example axb`` at N=4 ``jet_coproduct_functional`` reads each
    product e^b1 e^b2 through ``_pair_image`` on the context's entry for
    one factor (``jets._monomial``).  The rows of each product and their
    support are built once per context and read again by every functional
    of that context; they are paired only where their support meets the
    functional's table: few reads get past ``_pair_rows``' miss test.
    Building the row for every pairing made 2,520 rows on ``example axb``
    at N=6, where its two contexts hold 210 entries each."""
    real_coproduct = jets.jet_coproduct_functional
    real_image, real_rows = jets._pair_image, jets._product_rows
    real_misses, pair_rows = jets._misses, jets._pair_rows.__code__
    active, built, read, keep, paired = [], Counter(), Counter(), [], []

    def coproduct(ctx, lam, degree=None):
        keep.append(ctx)
        active.append(ctx)
        try:
            return real_coproduct(ctx, lam, degree)
        finally:
            active.pop()

    def pair_image(ctx, mu, image, m, right):
        if active:
            beta, = image[0].coeffs[0].terms
            read[id(ctx), beta, m] += 1
        return real_image(ctx, mu, image, m, right)

    def product_rows(spec, W, m, mono_right=True):
        if active:
            beta, = W.coeffs[0].terms
            built[id(active[-1]), beta, m] += 1
        return real_rows(spec, W, m, mono_right)

    def misses(lam, support):
        out = real_misses(lam, support)
        if active and not out and sys._getframe(1).f_code is pair_rows:
            paired.append(None)
        return out

    for module in list(sys.modules.values()):
        if module.__name__.startswith("qgroupoid") and getattr(
                module, "jet_coproduct_functional", None) is real_coproduct:
            monkeypatch.setattr(module, "jet_coproduct_functional", coproduct)
    monkeypatch.setattr(jets, "_pair_image", pair_image)
    monkeypatch.setattr(jets, "_product_rows", product_rows)
    monkeypatch.setattr(jets, "_misses", misses)
    code, _, _ = run_cli(["example", "axb", "--json-only"])
    assert code == 0
    assert built and set(built.values()) == {1}
    assert built.keys() == read.keys()
    # the rows are read again, by later functionals of the same context,
    # and few of those reads pair them
    assert sum(read.values()) > len(read)
    assert 0 < len(paired) < sum(read.values()) / 10


# the loops of the tensor reduction
REDUCTION_LOOPS = ("_reduce_into", "_reduce2_into", "_reduce3_into")


def test_shifts_are_interned_once_per_process(monkeypatch):
    """Each (last id, total gamma) shift of ``tensor_reduce`` and
    ``same_class`` is interned once per process (``envelope.SHIFTS``):
    two runs of ``twist`` on axb at N=4 in one process, from an empty
    table, intern each shift the reduction asks for once, and the second
    run interns none.  Interning once per call made 2,851 ``shift_id``
    calls for 769 keys inside one ``twistor_validate`` on ``example axb``
    at N=6."""
    real = tensorspace.shift_id
    asked, interned = [], []

    def shift_id(i, mu):
        if sys._getframe(1).f_code.co_name in REDUCTION_LOOPS:
            asked.append((i, mu))
        return real(i, mu)

    class Row(dict):
        def __setitem__(self, i, j):
            interned.append((i, self.mu))
            super().__setitem__(i, j)

    class Shifts(dict):
        def __missing__(self, mu):
            row = self[mu] = Row()
            row.mu = mu
            return row

    monkeypatch.setattr(envelope, "SHIFTS", Shifts())
    monkeypatch.setattr(tensorspace, "shift_id", shift_id)
    code, _, _ = run_cli(["twist", SPEC, "--json-only"])
    first, made = len(asked), len(interned)
    again, _, _ = run_cli(["twist", SPEC, "--json-only"])
    assert code == again == 0
    # the reduction asks for some shifts more than once, in each run
    assert len(set(asked[:first])) < first and len(asked) == 2 * first
    assert set(asked) <= set(interned)
    assert len(set(interned)) == len(interned) == made


def test_dual_products_build_each_row_once(monkeypatch):
    """On ``example axb`` at N=4 the rows of the product of W by m, W a
    functional's mapped image (``_image``) on a paired lift leg or as the
    first factor of a tensor functional, and their support are built once
    per (functional, image, m) and read by every partner of that
    functional; images of both kinds have rows.  Building the rows once
    per tabulation made 3,483 row builds (one per nonzero order of W) on
    ``example axb`` at N=6, where 1,236 remain."""
    real_image, real_rows = jets._image, jets._product_rows
    real_support, pair_image = jets._support, jets._pair_image.__code__
    owners, built, supported, pending = {}, Counter(), Counter(), []

    def image(lam, ctx, w, lift):
        entry = real_image(lam, ctx, w, lift)
        if entry[0] is not None:
            # holding lam and W keeps their ids from being reused
            owners[id(entry[0])] = (lam, w, lift, entry[0])
        return entry

    def product_rows(spec, W, m, mono_right=True):
        rows = real_rows(spec, W, m, mono_right)
        # the context's entries of basis monomials (``jets._monomial``)
        # have no owner
        owner = key = owners.get(id(W))
        if owner is not None:
            assert mono_right == owner[2]
            key = (id(owner[0]), owner[1], owner[2], m)
            built[key] += 1
        pending.append(key)
        return rows

    def support(ctx, monos, flavor):
        # a product's rows have their support built right after them
        if sys._getframe(1).f_code is pair_image:
            assert len(pending) == 1
            key = pending.pop()
            if key is not None:
                supported[key] += 1
        return real_support(ctx, monos, flavor)

    monkeypatch.setattr(jets, "_image", image)
    monkeypatch.setattr(jets, "_product_rows", product_rows)
    monkeypatch.setattr(jets, "_support", support)
    code, _, _ = run_cli(["example", "axb", "--json-only"])
    assert code == 0
    assert built and set(built.values()) == {1}
    assert supported == built and not pending
    assert {key[2] for key in built} == {True, False}


def test_dual_products_evaluate_only_marked_indices(monkeypatch):
    """On ``example axb`` at N=4 every dual product is tabulated
    (``jet_product``), 44 tabulations, and no index is evaluated on its
    own (``jet_product_eval``): a tabulation pairs each factor mu(W . o)
    of a (paired leg w, other leg o) at most once, none on a leg where
    lam vanishes, and leaves out far more indices than it tabulates.
    Evaluating every index made 1,100 evaluations on ``example axb`` at
    N=6; evaluating the indices a nonzero factor marks made 108, each
    reading its lift a second time."""
    real_transpose = jets._transpose
    sizes, evaluations = [], []

    def transpose(ctx, degree):
        hit = real_transpose(ctx, degree)
        sizes.append(len(hit[0]))
        return hit

    monkeypatch.setattr(jets, "_transpose", transpose)
    records = oracles.watch_tabulations(monkeypatch)
    real_product, tables = jets.jet_product, []

    def jet_product(ctx, lam, mu, degree=None):
        out = real_product(ctx, lam, mu, degree)
        tables.append(len(out.table))
        return out

    real_eval = jets.jet_product_eval

    def jet_product_eval(*args):
        evaluations.append(None)
        return real_eval(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("qgroupoid") and \
                getattr(module, "jet_product", None) is real_product:
            monkeypatch.setattr(module, "jet_product", jet_product)
    monkeypatch.setattr(jets, "jet_product_eval", jet_product_eval)
    code, _, _ = run_cli(["example", "axb", "--json-only"])
    assert code == 0
    assert len(records) == len(sizes) == len(tables) == 44
    assert not evaluations
    assert not any(r["evaluations"] or r["paired_vanishing"] for r in records)
    assert all(set(r["pairs"].values()) <= {1} for r in records)
    assert any(r["pairs"] for r in records)
    assert any(r["vanishing"] for r in records)
    assert 5 * sum(tables) < sum(sizes)


def test_pairings_decompose_only_keys_that_meet_the_table(monkeypatch):
    """On ``example axb`` at N=4 every decomposition of a whole key
    x^gamma e^alpha (``_decompose_product``) built under ``_pair_mono`` is
    for a pairing that comes out nonzero or for a key with an impure leg
    product.  Decomposing every key with gamma != 0 made 115 of them, where
    the functional's table now rules out all but 8."""
    real_pair = jets._pair_mono
    real_product = deform.DeformedEnvAlgebroid._decompose_product
    active, built = [], []

    def pair_mono(lam, ctx, key):
        active.append([])
        try:
            out = real_pair(lam, ctx, key)
        finally:
            made = active.pop()
        built.extend((ctx.dfa, k, flavor, out) for k, flavor in made)
        return out

    def decompose_product(dfa, gamma, alpha, flavor):
        if active:
            active[-1].append(((gamma, alpha), flavor))
        return real_product(dfa, gamma, alpha, flavor)

    monkeypatch.setattr(jets, "_pair_mono", pair_mono)
    monkeypatch.setattr(deform.DeformedEnvAlgebroid, "_decompose_product",
                        decompose_product)
    code, _, _ = run_cli(["example", "axb", "--json-only"])
    assert code == 0
    assert built
    assert all(not out.is_zero() or impure_leg_product(dfa, key, flavor)
               for dfa, key, flavor, out in built)


def test_takeuchi_compares_no_sample_with_equal_sides(monkeypatch):
    """``twist`` on axb at N=6 makes 39 ``reduce_series`` calls: each
    class test reduces one signed difference, and the Takeuchi check
    skips a = 1, whose relation t_F(1) (x) 1 - 1 (x) s_F(1) is zero for a
    twistor that meets the counit conditions.  Reducing both sides made
    78, and comparing a = 1 as well made 88."""
    real = deform.reduce_series
    calls = []

    def reduce_series(dfa, T):
        calls.append(T)
        return real(dfa, T)

    monkeypatch.setattr(deform, "reduce_series", reduce_series)
    code, _, _ = run_cli(["twist", SPEC, "--h-order", "6", "--json-only"])
    assert code == 0
    assert len(calls) == 39


def test_cli_tensor_products_have_two_legs(monkeypatch):
    """Every tensor product of ``example axb`` and of the eight spec
    commands on axb at N=4 has 2 legs, so it takes the one loop nest of
    ``tensorspace._mul_into``, which refuses any other width."""
    real = tensorspace._mul_into
    legs = Counter()

    def counted(out, spec, s, t, m):
        legs[s.legs] += 1
        return real(out, spec, s, t, m)

    monkeypatch.setattr(tensorspace, "_mul_into", counted)
    runs = [["example", "axb"]] + [[cmd[0], SPEC] + cmd[1:]
                                   for cmd in DEFAULT_SPEC_COMMANDS]
    for argv in runs:
        code, _, _ = run_cli(argv + ["--json-only"])
        assert code == 0, argv
    assert set(legs) == {2}


def _table_runs(tmp_path):
    """``example axb`` and the eight spec commands on axb and on the
    bracketed structure at a=2, at their default truncations."""
    bracket = tmp_path / "bracket.spec"
    bracket.write_text(_bracket_spec_text(2))
    return [["example", "axb"]] + [[cmd[0], spec] + cmd[1:]
                                   for spec in (SPEC, str(bracket))
                                   for cmd in DEFAULT_SPEC_COMMANDS]


def test_cli_conjugates_only_generators_and_base_monomials(tmp_path,
                                                           monkeypatch):
    """``conjugate`` is given only the 2-leg tensors Delta(e_j) and
    Delta(x^gamma) = x^gamma (x) 1, each once per deformation: every other
    lift is a product of these (``lift_mono``), and the twisted coproduct
    of a leg splices cached lifts (``deformed_coproduct_leg``).
    Conjugating each lift and each spliced series whole made 18
    conjugations of up to 4 legs on ``twist`` at N=6 and 30 on ``example``
    at N=6."""
    real = deform.DeformedEnvAlgebroid.conjugate
    seen = []

    def conjugate(dfa, T):
        seen.append((dfa, T))
        return real(dfa, T)

    monkeypatch.setattr(deform.DeformedEnvAlgebroid, "conjugate", conjugate)
    for argv in _table_runs(tmp_path):
        code, _, _ = run_cli(argv + ["--json-only"])
        assert code == 0, argv
    conjugated = Counter()
    for dfa, T in seen:
        spec = dfa.spec
        assert isinstance(T, tensorspace.TensorElement) and T.legs == 2
        # Delta(e_j), or x^gamma (x) 1 read off its left leg
        gens = [((0,) * spec.nvars,
                 tuple(int(i == j) for i in range(spec.rank)))
                for j in range(spec.rank)]
        keys = gens + [left for left, _ in T.terms if not any(left[1])]
        key, = [k for k in keys
                if T == tensorspace.copro_basis(spec, envelope.leg_id(k))]
        conjugated[(dfa, key)] += 1
    assert conjugated and set(conjugated.values()) == {1}


def test_cli_sweeps_each_monomial_image_once_per_twistor(tmp_path,
                                                         monkeypatch):
    """Each image s_F(x^m) or t_F(x^m) is swept once per deformation:
    ``twistor_validate`` and the base maps read the deformation's one
    table.  Each sweeping its own made ``twist`` at N=6 sweep 42 times for
    30 distinct images."""
    real = deform._sweep_image
    sweeps = Counter()

    def sweep(dfa, m, leg):
        sweeps[(dfa, leg, m)] += 1
        return real(dfa, m, leg)

    monkeypatch.setattr(deform, "_sweep_image", sweep)
    for argv in _table_runs(tmp_path):
        code, _, _ = run_cli(argv + ["--json-only"])
        assert code == 0, argv
    assert sweeps and set(sweeps.values()) == {1}


def test_cli_sums_no_envelope_elements_by_addition(monkeypatch):
    """``example axb`` and the eight spec commands on axb at N=4 sum every
    envelope product and every envelope series, differences included, on
    integer numerators by leg id over one denominator per h-order
    (``envelope._mul_mono_into``, ``_combination``) and compare series
    without differences, so they make no ``EnvElement.__add__`` call.  The chains of ``+`` and the subtracting
    comparisons made 2,329 in ``twist`` and 185 in ``dualize``; the
    subtractions of the membership tests and of the order-h cobracket made
    40 in ``example``, 20 and 30 in ``drinfeld`` roundtrip and prime and 10
    in ``semiclassical``."""
    real = envelope.EnvElement.__add__
    calls = Counter()
    argv = None

    def counted(self, other):
        calls[" ".join(argv)] += 1
        return real(self, other)

    monkeypatch.setattr(envelope.EnvElement, "__add__", counted)
    runs = [["example", "axb"]] + [[cmd[0], SPEC] + cmd[1:]
                                   for cmd in DEFAULT_SPEC_COMMANDS]
    for argv in runs:
        code, _, _ = run_cli(argv + ["--json-only"])
        assert code == 0, argv
    assert calls == Counter()


def test_dual_associativity_tabulates_through_the_lift():
    # the lifts of degree-1 monomials reach leg degree 2 at h_order 2
    for side in ("left", "right"):
        code, out, _ = run_cli(["dualize", SPEC, "--side", side,
                                "--h-order", "2", "--jet-degree", "1",
                                "--json-only"])
        assert code == 0, [l for l in parse_lines(out) if l.get("status") == "fail"]


def test_drinfeld_roundtrip_subcommand():
    code, out, _ = run_cli(["drinfeld", SPEC, "--functor", "roundtrip",
                            "--h-order", "3", "--jet-degree", "3",
                            "--n-max", "2", "--json-only"])
    assert code == 0
    assert parse_lines(out)[-1]["verdict"] == "pass"


def test_drinfeld_prime_subcommand():
    code, out, _ = run_cli(["drinfeld", SPEC, "--functor", "prime",
                            "--h-order", "3", "--n-max", "2", "--json-only"])
    assert code == 0


def test_semiclassical_subcommand():
    code, out, _ = run_cli(["semiclassical", SPEC, "--h-order", "3",
                            "--jet-degree", "3", "--json-only"])
    assert code == 0
    assert parse_lines(out)[-1]["verdict"] == "pass"


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.spec"
    bad.write_text("not a spec\n")
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 3
    assert "error" in err


def test_usage_error_exit_code():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 3
    code, _, _ = run_cli(["dualize"])   # missing specfile
    assert code == 3


def test_help_exits_zero():
    code, _, _ = run_cli(["--help"])
    assert code == 0


def test_truncation_overrides_are_bounded():
    for argv in (["twist", SPEC, "--h-order", "0"],
                 ["twist", SPEC, "--h-order", "-1"],
                 ["dualize", SPEC, "--jet-degree", "0"],
                 ["example", "axb", "--h-order", "0"],
                 ["example", "axb", "--jet-degree", "-2"]):
        code, out, err = run_cli(argv + ["--json-only"])
        assert code == 3, argv
        assert out == ""
        assert "all truncation degrees must be >= 1" in err


def test_example_membership_order_beyond_the_truncation():
    code, out, err = run_cli(["example", "axb", "--h-order", "2",
                              "--n-max", "3", "--json-only"])
    assert code == 3
    assert out == ""
    assert err == "error: n_max (3) must be <= h_order (2)\n"


def test_truncation_budget(tmp_path):
    text = open(SPEC).read().replace("h_order = 4", "h_order = 11")
    big = tmp_path / "big.spec"
    big.write_text(text)
    runs = [["twist", str(big)],
            ["twist", SPEC, "--h-order", "11"],
            ["semiclassical", SPEC, "--jet-degree", "11"],
            ["example", "axb", "--h-order", "11"],
            ["example", "axb", "--jet-degree", "11"]]
    for argv in runs:
        code, out, err = run_cli(argv + ["--json-only"])
        assert code == 3, argv
        assert "h_order and jet_degree must be <= 10" in err


def test_n_max_is_bounded_by_the_legs_of_a_coproduct(tmp_path):
    """n_max, the most legs of the membership test's iterated coproducts,
    is at most ``MAX_LEGS`` (8) in a spec file, in an override and in
    ``example``, and a larger one is refused before any work.  It was
    accepted, and ``drinfeld --functor prime --h-order 9 --n-max 9`` then
    ran 5 s before the engine refused the ninth leg (exit 2)."""
    big = tmp_path / "big.spec"
    big.write_text(open(SPEC).read().replace("n_max = 3", "n_max = 9"))
    runs = [["drinfeld", str(big), "--functor", "prime"],
            ["drinfeld", SPEC, "--functor", "prime", "--h-order", "9",
             "--n-max", "9"],
            ["example", "axb", "--h-order", "9", "--n-max", "9"]]
    for argv in runs:
        start = time.perf_counter()
        code, out, err = run_cli(argv + ["--json-only"])
        assert time.perf_counter() - start < 1, argv
        assert (code, out, err) == (3, "", "error: n_max must be <= 8\n"), argv
    code, _, _ = run_cli(["validate", SPEC, "--n-max", "8", "--json-only"])
    assert code == 0


def test_sample_degree_is_bounded_by_the_truncation_budget(tmp_path):
    """[samples] max_degree, whose C(nvars + d, nvars) monomials ``validate``
    enumerates, is at most ``MAX_TRUNCATION`` and a larger one is refused
    before any work.  It was only checked to be >= 1, so the work grew
    without bound in it."""
    from qgroupoid.specfile import MAX_TRUNCATION
    big = tmp_path / "big.spec"
    big.write_text(open(SPEC).read().replace(
        "max_degree = 2", "max_degree = %d" % (MAX_TRUNCATION + 1)))
    start = time.perf_counter()
    code, out, err = run_cli(["validate", str(big), "--json-only"])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        3, "", "error: [samples] max_degree must be <= %d\n" % MAX_TRUNCATION)


def _twistor_mismatch(tmp_path, form, entry):
    """Exit, stdout and stderr of ``twist`` on axb with its twistor section
    replaced by ``form`` and one ``entry`` at line 17, and the time taken."""
    text = open(SPEC).read().replace(
        "form = exp\nterm = 1/2 | x1*d1 | d2\nterm = -1/2 | d2 | x1*d1",
        "form = %s\n%s" % (form, entry))
    path = tmp_path / "mismatch.spec"
    path.write_text(text)
    start = time.perf_counter()
    got = run_cli(["twist", str(path), "--json-only"])
    return got, time.perf_counter() - start


@pytest.mark.parametrize("form", ["none", "orders"])
def test_term_entries_need_the_exp_form(tmp_path, form):
    """``build_twistor`` reads ``term`` lines under ``form = exp`` alone, so
    under another form they were ignored and the untwisted structure passed
    every check."""
    got, took = _twistor_mismatch(tmp_path, form, "term = 1/2 | x1*d1 | d2")
    assert took < 1
    assert got == (3, "", "error: line 17: term entries need form = exp, "
                   "not %s\n" % form)


@pytest.mark.parametrize("form", ["none", "exp"])
def test_order_entries_need_the_orders_form(tmp_path, form):
    """``build_twistor`` reads ``order n`` lines under ``form = orders``
    alone; under another form they were ignored."""
    got, took = _twistor_mismatch(tmp_path, form, "order 1 = 1 | x1*d1 | d2")
    assert took < 1
    assert got == (3, "", "error: line 17: order entries need form = orders, "
                   "not %s\n" % form)


def test_invariant_violation_is_a_failing_check(monkeypatch):
    """An engine call that raises ``InvariantViolation`` (a failed
    internal cross-check) makes a failing ``engine`` record, where any
    other engine error would leave the verdict indeterminate."""
    from qgroupoid.errors import InvariantViolation

    def broken(*args, **kwargs):
        raise InvariantViolation("cross-check failed")

    monkeypatch.setattr(cli, "deformed_axiom_suite", broken)
    code, out, _ = run_cli(["twist", SPEC, "--h-order", "2", "--json-only"])
    assert code == 1
    lines = parse_lines(out)
    assert lines[-1]["verdict"] == "fail"
    engine = [l for l in lines[1:-1] if l["check"] == "engine"]
    assert engine[0]["status"] == "fail"
    assert engine[0]["witness"] == "cross-check failed"


# the commands built on the spec's twistor
TWISTOR_COMMANDS = (
    ["twist"], ["dualize"], ["drinfeld", "--functor", "roundtrip"],
    ["drinfeld", "--functor", "prime"], ["drinfeld", "--functor", "vee"],
    ["semiclassical"],
)

INVALID_TWISTOR_SPEC = """
[base]
vars = x1 x2
[generators]
names = d1 d2
[anchor]
w 1 1 = 1
w 2 2 = 1
[twistor]
form = orders
order 1 = 1 | x1*d1 | d2
[truncation]
h_order = 3
"""


def test_no_command_certifies_an_invalid_twistor(tmp_path, monkeypatch):
    import qgroupoid.cli as cli

    spec = tmp_path / "cocycle.spec"
    spec.write_text(INVALID_TWISTOR_SPEC)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cli_validate(*args, **kwargs)

    cli_validate = cli.twistor_validate
    monkeypatch.setattr(cli, "twistor_validate", counted)
    for argv in TWISTOR_COMMANDS:
        del calls[:]
        code, out, _ = run_cli(argv + [str(spec), "--json-only"])
        assert code == 1, argv
        assert len(calls) == 1, argv
        lines = parse_lines(out)
        assert lines[-1]["verdict"] == "fail"
        failing = {l["check"]: l["witness"] for l in lines[1:-1]
                   if l["status"] == "fail"}
        assert failing["twistor/cocycle-identity"] == \
            "cocycle identity fails at order h^2", argv
        if argv[0] != "twist":
            assert all(l["check"].startswith("twistor/")
                       for l in lines[1:-1]), argv


NUMERIC_BASE = """
[base]
vars = x1 x2
[generators]
names = d1 d2
[anchor]
w 1 1 = {w11}
w 2 2 = 1
"""

# the spec file's text (None: the input is a path that cannot be read)
UNREADABLE_INPUTS = {
    "weight-zero-denominator": NUMERIC_BASE.format(w11=1)
    + "[twistor]\nform = exp\nterm = 1/0 | x1*d1 | d2\n",
    "order-weight-zero-denominator": NUMERIC_BASE.format(w11=1)
    + "[twistor]\nform = orders\norder 1 = 1/0 | d1 | d1\n",
    "factor-zero-denominator": NUMERIC_BASE.format(w11=1)
    + "[twistor]\nform = exp\nterm = 1 | 3/0*d1 | d2\n",
    "poly-zero-denominator": NUMERIC_BASE.format(w11="1/0"),
    "non-integer-power": NUMERIC_BASE.format(w11=1)
    + "[twistor]\nform = exp\nterm = 1 | d1^x | d2\n",
    "negative-power": NUMERIC_BASE.format(w11=1)
    + "[twistor]\nform = exp\nterm = 1 | d1^-1 | d2\n",
    "missing-file": None,
    "directory": None,
    "non-utf8-bytes": None,
}


@pytest.mark.parametrize("case", list(UNREADABLE_INPUTS))
def test_unreadable_spec_is_a_usage_error(case, tmp_path):
    path = tmp_path / "in.spec"
    text = UNREADABLE_INPUTS[case]
    if text is not None:
        path.write_text(text)
    elif case == "directory":
        path.mkdir()
    elif case == "non-utf8-bytes":
        path.write_bytes(b"\xff\xfe[base]\nvars = x1\n")
    code, out, err = run_cli(["twist", str(path), "--json-only"])
    assert code == 3, err
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


with open(os.path.join(ROOT, "perfbench", "reference.json")) as _fh:
    _REFERENCE = json.load(_fh)
REFERENCE_DIGESTS = _REFERENCE["digests"]
REFERENCE_FINGERPRINTS = _REFERENCE["fingerprints"]


def _bracket_spec_text(a):
    """The benchmark's generated bracketed structure at weight a, read from
    the BRACKET_SPEC literal of perfbench/run.py without running it."""
    with open(os.path.join(ROOT, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    template, = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["BRACKET_SPEC"]]
    return template.format(a=a, neg_a=-a)


DEFAULT_SPEC_COMMANDS = (
    ["validate"], ["twist"], ["dualize"], ["dualize", "--side", "right"],
    ["drinfeld", "--functor", "roundtrip"], ["drinfeld", "--functor", "prime"],
    ["drinfeld", "--functor", "vee"], ["semiclassical"],
)
# (spec label, command): every default command on axb and on the bracketed
# structure at a=2, the N=6 twist, and the N=6 worked example (no spec)
DIGEST_RUNS = [("axb", cmd) for cmd in DEFAULT_SPEC_COMMANDS] \
    + [("axb", ["twist", "--h-order", "6"])] \
    + [("bracket(a=2)", cmd) for cmd in DEFAULT_SPEC_COMMANDS] \
    + [("example", ["axb", "--h-order", "6", "--jet-degree", "6"])]


@pytest.mark.parametrize(
    "label,cmd", DIGEST_RUNS,
    ids=[" ".join(cmd) if label == "axb" else "%s %s" % (label, " ".join(cmd))
         for label, cmd in DIGEST_RUNS])
def test_report_bytes_match_the_reference_digest(label, cmd, tmp_path):
    # the benchmark's reference digests of `qgroupoid <cmd> <spec>
    # --json-only`, at the spec's own truncation unless cmd overrides it,
    # and of `qgroupoid example <cmd> --json-only`
    if label == "example":
        argv = ["example"] + cmd
    elif label == "axb":
        argv = [cmd[0], SPEC] + cmd[1:]
    else:
        spec = tmp_path / "bracket.spec"
        spec.write_text(_bracket_spec_text(2))
        argv = [cmd[0], str(spec)] + cmd[1:]
    code, out, err = run_cli(argv + ["--json-only"])
    assert code == 0 and err == ""
    digest = hashlib.md5(out.encode()).hexdigest()
    assert digest == REFERENCE_DIGESTS["%s %s" % (label, " ".join(cmd))]


# report digests beyond the benchmark's reference: the N=10 twist and worked
# example, where the divided powers of exp(h r) reach the denominator
# 2^10 10!, and the worked example at its default truncation
PINNED_DIGESTS = [
    (["twist", SPEC, "--h-order", "10"], "a99e8b317b9fa677a033dfb7ba8260c8"),
    (["example", "axb", "--h-order", "10", "--jet-degree", "10"],
     "d4a937c2227adaef3fc5b98e8a939bb5"),
    (["example", "axb"], "54717f203e186fa1bec9b7813e68a19d"),
]


@pytest.mark.parametrize("argv,want", PINNED_DIGESTS,
                         ids=["twist --h-order 10",
                              "example axb --h-order 10 --jet-degree 10",
                              "example axb"])
def test_report_bytes_match_the_pinned_digest(argv, want):
    code, out, err = run_cli(argv + ["--json-only"])
    assert code == 0 and err == ""
    assert hashlib.md5(out.encode()).hexdigest() == want


# interns every leg of the axb shape up to degree 4 in a shuffled order,
# then runs the CLI: the report must not depend on the order of the ids
SHUFFLED_LEG_IDS = r"""
import itertools, random, sys
from qgroupoid.cli import main
from qgroupoid.envelope import LEGS, leg_id
exps = list(itertools.product(range(5), repeat=2))
legs = [(g, a) for g in exps for a in exps]
random.Random(int(sys.argv[1])).shuffle(legs)
for leg in legs:
    leg_id(leg)
assert LEGS != sorted(LEGS)
raise SystemExit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_reports_do_not_depend_on_leg_id_order(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    runs = [(["twist", SPEC], REFERENCE_DIGESTS["axb twist"]),
            (["example", "axb"], dict((tuple(a), d) for a, d in
                                      PINNED_DIGESTS)[("example", "axb")])]
    for argv, want in runs:
        proc = subprocess.run(
            [sys.executable, "-c", SHUFFLED_LEG_IDS, seed] + argv
            + ["--json-only"], env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.md5(proc.stdout).hexdigest() == want


def _load_values():
    """The benchmark's value-fingerprint module, loaded by path."""
    path = os.path.join(ROOT, "perfbench", "values.py")
    spec = importlib.util.spec_from_file_location("perfbench_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("label,n", [
    pytest.param("axb", 4, id="axb"),
    pytest.param("bracket(a=2)", 4, id="bracket(a=2)"),
    pytest.param("bracket(a=-1)", 4, id="bracket(a=-1)"),
    pytest.param("bracket(a=3)", 4, id="bracket(a=3)"),
    pytest.param("bracket(a=5)", 4, id="bracket(a=5)"),
    pytest.param("axb", 6, id="axb n6"),
])
def test_values_match_the_reference_fingerprint(label, n, tmp_path):
    # the benchmark's reference fingerprint of `values.py fingerprint <spec>
    # --h-order n --jet-degree n`, computed as its main does; the report
    # digests cannot see these values (the dual product windows among them)
    values = _load_values()
    if label == "axb":
        spec = SPEC if n == 4 else "axb"
    else:
        # the bracket weight a is read from the label "bracket(a=...)"
        weight = int(label[len("bracket(a="):-1])
        spec = tmp_path / "bracket.spec"
        spec.write_text(_bracket_spec_text(weight))
    dfa = values.build(str(spec), "deformation", n, n)
    parts = values.fingerprint_parts(dfa, n)
    total = hashlib.md5(json.dumps(parts, sort_keys=True).encode()).hexdigest()
    assert total == REFERENCE_FINGERPRINTS["%s n%d" % (label, n)]


@pytest.mark.parametrize("cmd", DEFAULT_SPEC_COMMANDS,
                         ids=[" ".join(cmd) for cmd in DEFAULT_SPEC_COMMANDS])
def test_bad_extra_sample_is_a_usage_error_in_every_command(cmd, tmp_path):
    # every command loads the spec, and the load parses [samples] extra
    lines = open(SPEC).read().splitlines()
    assert lines[26] == "max_degree = 2" and lines[27] == ""
    lines[27] = "extra = x1 + 1/0"
    path = tmp_path / "extra.spec"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli([cmd[0], str(path)] + cmd[1:] + ["--json-only"])
    assert code == 3
    assert out == ""
    assert err == "error: line 28: zero denominator in '1/0'\n"
