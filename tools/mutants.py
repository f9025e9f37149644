"""Apply each named mutant of the engine in a temporary copy of the
repository and report whether the tests named for it fail.

Usage: python tools/mutants.py [--only NAME ...] [--list]

A mutant is (name, file under src/qgroupoid, exact snippet, replacement,
test ids).  The snippet must occur exactly once in the file.  For each
mutant the repository is copied (without .git) into a temporary
directory, the one replacement is made there, and
``python -m pytest -x -q <test ids>`` runs in the copy with its own
``src`` on ``PYTHONPATH``.  The mutant is "killed" when pytest reports a
failed test (exit status 1) and "survived" when every named test passes;
any other status (a collection error, no test found) is "error".  The
working tree is never edited.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAST = "tests/test_fast_paths.py::"

# (name, file, snippet, replacement, test ids that must fail)
MUTANTS = [
    # decompose x^gamma e^alpha through the decomposition of x^gamma alone
    ("decompose-impure-terms-dropped", "deform.py",
     "acc.append((u, l, q))", "pass",
     [FAST + "test_decompose_mono_matches_whole_monomial",
      FAST + "test_pairing_sums_match_chains"]),
    ("decompose-leg-coefficient-dropped", "deform.py",
     "acc.append((EnvElement.from_poly(rank, c), delta, q))",
     "acc.append((EnvElement.from_poly(rank, c), delta, 1))",
     [FAST + "test_decompose_mono_matches_whole_monomial"]),
    ("decompose-keys-unsorted", "deform.py",
     "for alpha in sorted(terms):", "for alpha in terms:",
     [FAST + "test_decompose_mono_matches_whole_monomial"]),
    # envelope elements on integer numerators by leg id
    ("env-sum-ignores-denominators", "envelope.py",
     "m = c.numerator * (den // (c.denominator * d))",
     "m = c.numerator",
     ["tests/test_envelope.py::test_element_sums_align_denominators",
      FAST + "test_integer_rows_match_fraction_rows"]),
    ("env-shift-drops-coordinate", "envelope.py",
     "            if shifts is not None:\n                k = shifts.get(j)",
     "            if False:\n                k = shifts.get(j)",
     [FAST + "test_mono_loop_matches_replaced_loops",
      FAST + "test_integer_rows_match_fraction_rows"]),
    # one splice at a leg: the coproduct, its twist and the H' projection
    ("splice-drops-order-offset", "tensorspace.py",
     "for p in got[w][t - k:t - k + 1] if p.num]",
     "for p in got[w][t:t + 1] if p.num]",
     [FAST + "test_fast_path_matches_reference[deformed_coproduct_leg-gen1]",
      FAST + "test_fast_path_matches_reference[_project_leg-gen0]",
      FAST + "test_hadamard_coproduct_leg_matches_cauchy",
      FAST + "test_spliced_lifts_match_conjugated_splices",
      "tests/test_drinfeld.py::"
      "test_hprime_membership_is_two_sided_on_the_pbw_filtration"]),
    ("splice-at-the-first-leg", "tensorspace.py",
     "kk = head + k2 + tail", "kk = k2 + head + tail",
     [FAST + "test_fast_path_matches_reference[tensor_coproduct_leg-gen0]",
      FAST + "test_fast_path_matches_reference[deformed_coproduct_leg-gen0]",
      FAST + "test_hadamard_coproduct_leg_matches_cauchy",
      FAST + "test_fast_path_matches_reference[_project_leg-gen0]"]),
    # fixed loop nests for 2- and 3-leg tensor products
    ("mul3-last-leg-coefficient-dropped", "tensorspace.py",
     "c2 = c1 if q2 == 1 else c1 * q2", "c2 = c1",
     [FAST + "test_loop_nests_match_general_loop"]),
    ("mul2-second-leg-coefficient-dropped", "tensorspace.py",
     "c1 = c0 if q1 == 1 else c0 * q1\n                    key = (k0, k1)",
     "c1 = c0\n                    key = (k0, k1)",
     [FAST + "test_loop_nests_match_general_loop"]),
    # tables built once per structure, context or functional
    ("memo-not-stored", "envelope.py",
     "hit = table[args] = f(owner, *args)", "hit = f(owner, *args)",
     [FAST + "test_lift_products_match_conjugated_lifts",
      "tests/test_cli.py::"
      "test_cli_sweeps_each_monomial_image_once_per_twistor"]),
    ("memo-key-ignores-arguments", "envelope.py",
     "hit = table.get(args, _MISS)",
     "hit = next(iter(table.values()), _MISS)",
     ["tests/test_deform.py::"
      "test_takeuchi_sides_are_built_once_per_base_element",
      FAST + "test_star_pair_table_matches_direct_star"]),
    ("pairing-support-without-impure-fallback", "deform.py",
     "return None if impure else tuple(",
     "return None if False else tuple(",
     [FAST + "test_pair_mono_matches_the_decomposed_pairing"]),
    ("source-target-ignores-degree", "jets.py",
     "table = _tabulate(ctx, acted, degree)", "table = _tabulate(ctx, acted)",
     [FAST + "test_context_and_functional_tables_match_loops"]),
    ("reduce3-second-gamma-dropped", "tensorspace.py",
     "g = tuple(map(add, ga, gb))", "g = ga",
     [FAST + "test_reduce_kernels_match_the_loop"]),
    ("same-class-without-denominator-scaling", "tensorspace.py",
     "return not _reduce_into(out, t, -(den // t.den))",
     "return not _reduce_into(out, t, -1)",
     [FAST + "test_reduce_kernels_match_the_loop"]),
    ("shift-id-not-stored", "envelope.py",
     "j = row[i] = leg_id((tuple(map(add, gamma, mu)), alpha))",
     "j = leg_id((tuple(map(add, gamma, mu)), alpha))",
     ["tests/test_cli.py::test_shifts_are_interned_once_per_process"]),
    ("entry-memo-not-stored", "jets.py",
     "@memo\ndef _monomial(ctx, beta):", "def _monomial(ctx, beta):",
     ["tests/test_cli.py::test_entry_rows_are_built_once_per_context"]),
    # dual products through their transpose
    ("zero-factor-is-the-shared-zero", "jets.py",
     "else HLaurent.zero_upto(top, ctx.zero_poly())",
     "else ctx.zero_value()",
     [FAST + "test_jet_product_matches_the_gather"]),
    ("transpose-of-the-jet-degree", "jets.py",
     "ctx, ctx.jet_degree if degree is None else degree)",
     "ctx, ctx.jet_degree)",
     [FAST + "test_jet_product_matches_the_gather"]),
    ("zero-factors-not-added", "jets.py",
     "    for P, pair, positions in zeros:",
     "    for P, pair, positions in ():",
     [FAST + "test_jet_product_matches_the_gather",
      FAST + "test_tables_never_cross_contexts_or_deformations"]),
    ("scatter-order-dropped", "jets.py",
     "acc.add(P, Fraction(c, Tk.den), k)",
     "acc.add(P, Fraction(c, Tk.den), 0)",
     [FAST + "test_jet_product_matches_the_gather"]),
    # one pairing path in the jet dual
    ("tensor-functional-reads-the-lift-image", "jets.py",
     "first, ctx, (zeros, beta), False)", "first, ctx, (zeros, beta), True)",
     [FAST + "test_tables_never_cross_contexts_or_deformations"]),
    ("coproduct-right-orientation-dropped", "jets.py",
     "paired, moved = (b2, b1) if left else (b1, b2)",
     "paired, moved = (b2, b1)",
     [FAST + "test_coproduct_and_source_target_match_built_products"]),
    ("support-reads-impure-as-pure", "jets.py",
     "        if not any(gamma):\n            out[alpha] = None",
     "        if True:\n            out[alpha] = None",
     [FAST + "test_pair_mono_matches_the_decomposed_pairing"]),
    # sparse migrants table
    ("migrant-numerator-dropped", "deform.py",
     "cc = cl * cw", "cc = cl",
     [FAST + "test_reduce_leg_matches_nested_keys",
      FAST + "test_reduce_series_matches_uncached"]),
    # delta^n as one loop on leg ids
    ("delta-n-skips-the-first-leg", "drinfeld.py",
     "for leg in range(n):", "for leg in range(1, n):",
     ["tests/test_drinfeld.py::test_hprime_members_positive",
      "tests/test_cli.py::test_report_bytes_match_the_reference_digest"]),
    ("projection-keeps-the-counit-part", "drinfeld.py",
     "return [own - image[0]] + [-t for t in image[1:]]",
     "return [own] + [-t for t in image[1:]]",
     [FAST + "test_fast_path_matches_reference[_project_leg-gen0]",
      "tests/test_drinfeld.py::test_hprime_members_positive"]),
    # one table of the worked example's identities
    ("identity-table-ignores-flavor-sign", "axb.py",
     "sign = -1 if flavor == LEFT else 1", "sign = -1",
     ["tests/test_axb.py", "tests/test_acceptance.py"]),
    ("transport-reads-the-right-table", "axb.py",
     "_identities(ctx, LEFT, ", "_identities(ctx, ctx.flavor, ",
     ["tests/test_axb.py", "tests/test_acceptance.py"]),
    # one reader of the semiclassical dual, one integrality rule
    ("dual-reader-reads-order-zero", "drinfeld.py",
     "comm.value(jctx, e).coeff(-1)", "comm.value(jctx, e).coeff(0)",
     ["tests/test_drinfeld.py::test_dual_bracket_right_matches_cobracket",
      "tests/test_drinfeld.py::test_dual_bracket_left_is_opposite",
      "tests/test_drinfeld.py::test_vee_semiclassical_left",
      "tests/test_drinfeld.py::test_vee_semiclassical_right_is_coopposite",
      "tests/test_acceptance.py::test_criterion_07_semiclassical_consistency"]),
    ("vee-depth-off-by-one", "drinfeld.py",
     "norm.val < -sum(beta)", "norm.val < -sum(beta) - 1",
     ["tests/test_drinfeld.py::test_vee_nonintegral_detection",
      "tests/test_drinfeld.py::"
      "test_roundtrip_reports_a_nonintegral_generator"]),
    # one check protocol: a check counts every case it reads
    ("check-counts-passing-cases-only", "report.py",
     "            read += 1\n            witness = test(case)\n"
     "            if witness is not None:\n                break\n",
     "            witness = test(case)\n            if witness is not None:\n"
     "                break\n            read += 1\n",
     ["tests/test_report.py::test_check_counts_the_cases_it_read",
      "tests/test_report.py::"
      "test_extend_keeps_names_statuses_witnesses_and_counts"]),
    # the deformation owns its twistor's tables; one signed reduction
    ("takeuchi-relation-drops-source-side", "deform.py",
     "        return self.target(a).map(lambda u: TensorElement.of(u, one)) \\\n"
     "            - self.source(a).map(lambda u: TensorElement.of(one, u))",
     "        return self.target(a).map(lambda u: TensorElement.of(u, one))",
     ["tests/test_deform.py::test_takeuchi_deformed_coproduct",
      "tests/test_deform.py::"
      "test_takeuchi_sides_are_built_once_per_base_element",
      "tests/test_deform.py::test_std_twistor_valid_order4"]),
    ("signed-difference-checked-at-h0-only", "deform.py",
     "for T in reduce_series(dfa, HT).coeffs)",
     "for T in reduce_series(dfa, HT).coeffs[:1])",
     ["tests/test_deform.py::"
      "test_takeuchi_compares_a_unit_sample_when_the_counit_breaks",
      "tests/test_deform.py::test_deformed_class_tests_see_every_order"]),
    ("projection-memo-ignores-flavor", "drinfeld.py",
     "@memo\ndef _projection_pieces(",
     "@(lambda f: lambda dfa, w, flavor: dfa._memos[f.__name__].setdefault(\n"
     "    (w,), f(dfa, w, flavor)))\ndef _projection_pieces(",
     ["tests/test_drinfeld.py::"
      "test_hprime_member_projects_each_flavor_by_its_own_map",
      FAST + "test_fast_path_matches_reference[_project_leg-gen0]"]),
    # one prologue for the commands built on the twistor
    ("command-goes-past-a-failed-twistor", "cli.py",
     '        if args.command != "twist":\n            return report',
     '        if False:\n            return report',
     ["tests/test_cli.py::test_no_command_certifies_an_invalid_twistor"]),
    # membership products built once
    ("membership-product-not-multiplied", "drinfeld.py",
     "cur[combo] = prod = a if head is None else defelem_mul(spec, head, a)",
     "cur[combo] = prod = a if head is None else head",
     ["tests/test_drinfeld.py::test_functional_membership"]),
]


def source(file):
    return os.path.join("src", "qgroupoid", file)


def occurrences(root=ROOT):
    """{mutant name: how often its snippet occurs in its file}."""
    out = {}
    for name, file, snippet, _, _ in MUTANTS:
        with open(os.path.join(root, source(file))) as f:
            out[name] = f.read().count(snippet)
    return out


def run(mutant):
    """'killed', 'survived' or 'error' for one mutant, in a fresh copy."""
    name, file, snippet, replacement, tests = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench"))
        path = os.path.join(copy, source(file))
        with open(path) as f:
            text = f.read()
        if text.count(snippet) != 1:
            return "error"
        with open(path, "w") as f:
            f.write(text.replace(snippet, replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider"] + tests, cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(status, "error")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="*", help="mutant names to run")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and exit")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    if args.list:
        for name, file, _, _, tests in chosen:
            print("%s  %s  %s" % (name, file, " ".join(tests)))
        return 0
    print("| mutant | file | result |")
    print("|---|---|---|")
    results = []
    for mutant in chosen:
        result = run(mutant)
        results.append(result)
        print("| %s | %s | %s |" % (mutant[0], mutant[1], result), flush=True)
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
