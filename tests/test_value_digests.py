"""``tools/digests.py --values``: value-family digests that see what a
report digest does not."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")

# the --values lines of POLYNOMIAL_SPEC at N = 1; a change that moves a
# value or a window moves its line, and must name it
POLYNOMIAL_N1 = """\
88ec79ef1c0dc3a2df36ada6abceaf42  polynomial.spec 1 left/jet_product
356209e95578008bde47d176b5dc0800  polynomial.spec 1 left/jet_source_target
a4eb0f06d07fc3eb590a6678821194c0  polynomial.spec 1 left/jet_coproduct_functional
6151a08b13740f01d25ec806dbae6b44  polynomial.spec 1 left/tensor_functional_from_pair
fa91c1d31f8889f274b4a6d67377614a  polynomial.spec 1 left/vee_relations
0f7ba1346846e297856d6e60ae95fc48  polynomial.spec 1 left/hprime_basis
34496a99c9f6a2c5fba60c7c8af8c95a  polynomial.spec 1 right/jet_product
0af96970164ecac1b4729f1cbb870ccb  polynomial.spec 1 right/jet_source_target
0b6fa8e81b1b6ff5b1385e88485321ca  polynomial.spec 1 right/jet_coproduct_functional
75bab84ee0a9d264c4b7f9babe80b1e9  polynomial.spec 1 right/tensor_functional_from_pair
e8fef1a78e15814392390591513708f8  polynomial.spec 1 right/vee_relations
0f7ba1346846e297856d6e60ae95fc48  polynomial.spec 1 right/hprime_basis
de6791c8fb7e189c7a741b42f8bec988  polynomial.spec 1 hprime_member
1dc4dbf16dbbd965d6a509dd5a4a6087  polynomial.spec 1 semiclassical_cobracket
"""


def _digests():
    path = os.path.join(ROOT, "tools", "digests.py")
    spec = importlib.util.spec_from_file_location("digests", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_value_lines_agree_across_seeds_and_match_the_pinned_lines(capsys):
    """One case of ``--values`` runs in a fresh process under each hash
    seed; the two agree line for line (exit status 0), every part has an
    md5, and the lines are the pinned ones."""
    status = _digests().main(["--values", "--only", "polynomial.spec 1"])
    out = capsys.readouterr().out
    assert status == 0
    assert out == POLYNOMIAL_N1
