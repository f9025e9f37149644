import os

import pytest

from qgroupoid.axb import axb_exponent, axb_spec
from qgroupoid.deform import twistor_exponent
from qgroupoid.errors import ParseError, SemanticError
from qgroupoid.scalars import CPoly, parse_poly
from qgroupoid.specfile import (
    MAX_TRUNCATION, check_truncation, load_spec, load_spec_file,
    parse_env_monomial,
)

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")


def test_shipped_axb_spec_matches_builtin():
    espec = load_spec_file(os.path.join(SPEC_DIR, "axb.spec"))
    assert espec.var_names == ["x1", "x2"]
    assert espec.gen_names == ["d1", "d2"]
    built = espec.build_structure()
    ref = axb_spec()
    assert built.nvars == ref.nvars and built.rank == ref.rank
    assert built.bracket == ref.bracket
    assert built.anchor == ref.anchor
    F = espec.build_twistor(built, espec.h_order)
    assert twistor_exponent(built, F) == axb_exponent(ref)
    assert espec.h_order == 4 and espec.jet_degree == 4


def test_empty_file_rejected():
    with pytest.raises(ParseError):
        load_spec("")
    with pytest.raises(ParseError):
        load_spec("# only comments\n\n")


def test_bracket_entry_spec():
    text = """
[base]
vars = x1 x2

[generators]
rank = 2

[bracket]
c 1 2 1 = x1
"""
    espec = load_spec(text)
    spec = espec.build_structure()
    assert spec.bracket == {(0, 1): (parse_poly("x1", 2), CPoly.zero(2))}


def test_parse_errors_carry_line():
    bad = "[base]\nvars = x1\n[generators]\nrank = 2\n[bracket]\nc 1 = x1\n"
    with pytest.raises(ParseError) as err:
        load_spec(bad)
    assert err.value.line == 6


def test_extra_samples_are_parsed_at_load_with_their_line():
    # [samples] before [base]: the extras are parsed once the variables are known
    text = "[samples]\nextra = x1*x2 + 1/2; -x2^2\nextra = x1\n" \
        "[base]\nvars = x1 x2\n[generators]\nrank = 1\n"
    assert load_spec(text).extra_polys == [parse_poly("x1*x2 + 1/2", 2),
                                           parse_poly("-x2^2", 2),
                                           parse_poly("x1", 2)]
    # a later extra line adds to the earlier ones, so each is parsed
    bad = "[base]\nvars = x1\n[generators]\nrank = 1\n[samples]\n" \
        "max_degree = 2\nextra = x1; x1 + 1/0\nextra = x1^2\n"
    with pytest.raises(ParseError) as err:
        load_spec(bad)
    assert err.value.line == 7
    assert str(err.value) == "line 7: zero denominator in '1/0'"


def test_semantic_errors():
    with pytest.raises(SemanticError):
        load_spec("[base]\nvars = x1\n[generators]\nrank = 2\n"
                  "[bracket]\nc 1 2 3 = x1\n")
    with pytest.raises(SemanticError):
        load_spec("[base]\nvars = y1\n[generators]\nrank = 1\n")


def test_pbw_degree_is_bounded_like_the_others():
    """``pbw_degree`` up to ``MAX_TRUNCATION`` passes; one more is refused
    with a message that names the key, as h_order and jet_degree are."""
    check_truncation(4, 4, 2, MAX_TRUNCATION)
    with pytest.raises(SemanticError, match=r"^pbw_degree must be <= %d$"
                       % MAX_TRUNCATION):
        check_truncation(4, 4, 2, MAX_TRUNCATION + 1)
    with pytest.raises(SemanticError, match="must be >= 1"):
        check_truncation(4, 4, 2, 0)


def test_env_monomial_parser():
    u = parse_env_monomial("3/2*x1^2*d1*d2^2", ["x1", "x2"], ["d1", "d2"], 6)
    assert u.terms == {(1, 2): parse_poly("3/2*x1^2", 2)}
    with pytest.raises(ParseError):
        parse_env_monomial("z1", ["x1"], ["d1"], 6)


def test_env_monomial_bounds():
    """A monomial's generator degree is at most the bound it is given and
    a number's power at most ``MAX_TRUNCATION``; the base variables' powers
    are not bounded."""
    names = ["x1"], ["d1", "d2"]
    u = parse_env_monomial("2^%d*x1^20*d1^2*d2" % MAX_TRUNCATION, *names, 3)
    assert u.terms == {(2, 1): parse_poly("%d*x1^20" % 2 ** MAX_TRUNCATION, 1)}
    with pytest.raises(ParseError, match=r"^line 4: generator degree of "
                       r"'d1\^2\*d2' is above pbw_degree = 2$"):
        parse_env_monomial("d1^2*d2", *names, 2, 4)
    with pytest.raises(ParseError, match=r"^line 4: power of '2\^%d' is "
                       r"above %d$" % (MAX_TRUNCATION + 1, MAX_TRUNCATION)):
        parse_env_monomial("2^%d*d1" % (MAX_TRUNCATION + 1), *names, 2, 4)


def test_explicit_order_twistor():
    text = """
[base]
vars = x1 x2

[generators]
names = d1 d2

[anchor]
w 1 1 = 1
w 2 2 = 1

[twistor]
form = orders
order 1 = 1/2 | x1*d1 | d2
order 1 = -1/2 | d2 | x1*d1
order 2 = 1 | d1 | d2

[truncation]
h_order = 2
jet_degree = 2
n_max = 2
"""
    espec = load_spec(text)
    spec = espec.build_structure()
    F = espec.build_twistor(spec, 2)
    from qgroupoid.axb import axb_exponent
    assert F.coeffs[1] == axb_exponent(spec)
    assert len(F.coeffs[2].terms) == 1


def test_polynomial_bracket_spec_validates():
    from qgroupoid.lierinehart import lr_validate
    text = """
[base]
vars = x1 x2

[generators]
rank = 2

[bracket]
c 1 2 1 = x1

[truncation]
h_order = 2
jet_degree = 2
n_max = 2
"""
    spec = load_spec(text).build_structure()
    assert lr_validate(spec).ok()
