"""Kernels for sparse polynomial dictionaries.

A polynomial is a dict mapping exponent tuples (one int per variable) to
nonzero Fraction coefficients.  These functions are the hot loops of the
whole engine.  Most products have a single-term operand with coefficient
1 (a PBW basis monomial), and most scalings are by 1; those take a fast
path that returns exactly what the general loop returns, with no
``Fraction`` arithmetic.
"""

from fractions import Fraction
from operator import add

BACKEND = "pure"

_ZERO = Fraction(0)


def poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, _ZERO) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, _ZERO) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_neg(a):
    return {k: -v for k, v in a.items()}


def poly_scale(a, c):
    if not c:
        return {}
    if c == 1:
        return dict(a)
    return {k: v * c for k, v in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a monomial shifts the exponents injectively: no two terms meet
        (ka, va), = a.items()
        if va == 1:
            return {tuple(map(add, ka, kb)): vb for kb, vb in b.items()}
        return {tuple(map(add, ka, kb)): va if vb == 1 else va * vb
                for kb, vb in b.items()}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            s = out.get(k, _ZERO) + (va if vb == 1 else va * vb)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def poly_diff(a, j):
    # lowering the j-th exponent is injective on the terms it keeps, so no
    # two terms meet
    return {k[:j] + (k[j] - 1,) + k[j + 1:]: v * k[j]
            for k, v in a.items() if k[j]}
