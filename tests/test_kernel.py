from fractions import Fraction

from qgroupoid import kernel
from qgroupoid.kernel import BACKEND


def test_pure_kernel_basics():
    a = {(1, 0): Fraction(2)}
    b = {(0, 1): Fraction(3)}
    assert kernel.poly_mul(a, b) == {(1, 1): Fraction(6)}
    assert kernel.poly_add(a, {(1, 0): Fraction(-2)}) == {}
    assert kernel.poly_diff({(2, 0): Fraction(1)}, 0) == {(1, 0): Fraction(2)}
    assert kernel.poly_scale(a, Fraction(0)) == {}
    assert kernel.poly_neg(b) == {(0, 1): Fraction(-3)}
    assert kernel.poly_sub(a, a) == {}


def test_selected_backend_reports():
    assert BACKEND == "pure"
