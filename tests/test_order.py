"""Values do not depend on the order their items were inserted in.

Storage keeps whatever order a value was built in; equality, hashing,
repr, str, the documents and `Poly.terms` must all come out the same.
"""

import itertools
from fractions import Fraction

import pytest

from pathforms.forms import Chart, OrdinaryForm
from pathforms.generalized import GeneralizedForm
from pathforms.koszul import KoszulElement, KoszulParams
from pathforms.polyring import _W, Poly
from pathforms.serialize import dumps, poly_to_doc, to_doc

XYZ = ("x", "y", "z")
CHART = Chart(XYZ)
PARAMS = KoszulParams((Fraction(1), Fraction(-2, 3), Fraction(5)))

# four terms whose exponent tuples and index tuples sort differently by
# insertion, by tuple and by (length, tuple)
POLY_ITEMS = [
    ((0, 2, 1), Fraction(3, 4)),
    ((1, 0, 0), Fraction(-1)),
    ((0, 0, 0), Fraction(5, 6)),
    ((2, 1, 0), Fraction(7)),
]
INDEX_TUPLES = [(0, 2), (1,), (), (0, 1, 2)]


def orders(items):
    """Every insertion order of items, as dicts."""
    return [dict(perm) for perm in itertools.permutations(items)]


def poly(order=0):
    """The same polynomial, built in one of its insertion orders."""
    return Poly(XYZ, orders(POLY_ITEMS)[order])


def _polys():
    out = [Poly(XYZ, terms) for terms in orders(POLY_ITEMS)]
    # the trusted constructor: packed keys, numerators over the denominator 12
    for perm in itertools.permutations(POLY_ITEMS):
        packed = {(e[0] << _W | e[1]) << _W | e[2]: int(c * 12) for e, c in perm}
        out.append(Poly._make(XYZ, packed, 12))
    # one sum, assembled in both orders
    a, b = Poly(XYZ, dict(POLY_ITEMS[:2])), Poly(XYZ, dict(POLY_ITEMS[2:]))
    out += [a + b, b + a]
    return out


def _forms():
    coeffs = [poly(i) for i in range(len(INDEX_TUPLES))]
    items = list(zip(INDEX_TUPLES, coeffs))
    out = [OrdinaryForm(CHART, comps) for comps in orders(items)]
    out += [OrdinaryForm._trusted(CHART, comps) for comps in orders(items)]
    return out


def _koszul():
    items = [(i, Fraction(k + 1, 3)) for k, i in enumerate(INDEX_TUPLES)]
    out = [KoszulElement(PARAMS, terms) for terms in orders(items)]
    out += [KoszulElement._trusted(PARAMS, terms) for terms in orders(items)]
    return out


def _generalized():
    forms = _forms()
    items = [(i, forms[k * 7]) for k, i in enumerate(INDEX_TUPLES)]
    out = [GeneralizedForm(CHART, PARAMS, comps) for comps in orders(items)]
    out += [GeneralizedForm._trusted((CHART, PARAMS), comps) for comps in orders(items)]
    return out


def _document(value):
    if isinstance(value, Poly):
        return dumps(poly_to_doc(value))
    return dumps(to_doc(value))


@pytest.mark.parametrize(
    "build", [_polys, _forms, _koszul, _generalized], ids=lambda f: f.__name__[1:]
)
def test_insertion_order_changes_nothing_visible(build):
    values = build()
    first = values[0]
    for value in values:
        assert value == first
        assert hash(value) == hash(first)
        assert repr(value) == repr(first)
        assert str(value) == str(first)
        assert _document(value) == _document(first)


def test_terms_iterate_in_sorted_order():
    for value in _polys():
        assert list(value.terms) == sorted(exps for exps, _ in POLY_ITEMS)
    product = poly(5) * poly(17) + poly(9)
    assert list(product.terms) == sorted(product.terms)


def test_repr_lists_monomials_by_length_then_index():
    for value in _koszul():
        assert repr(value) == (
            "KoszulElement((1) + (2/3)*z[1] + (1/3)*z[0, 2] + (4/3)*z[0, 1, 2])"
        )
