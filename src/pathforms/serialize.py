"""JSON interchange for every value the package computes with.

One document shape per type, rationals as "num/den" strings so nothing
is ever rounded in transit, and all indices 0-based:

    Poly        [{"coeff": "num/den", "exps": [e0, e1, ...]}, ...]
    Form        {"chart": [names], "components": [{"indices": [...], "poly": ...}]}
    Koszul      {"n": n, "k": ["num/den", ...], "terms": [{"zetas": [...], "coeff": ...}]}
    Generalized {"chart": [...], "koszul": {"n": ..., "k": [...]},
                 "components": [{"zetas": [...], "form": <Form>}]}
    Plot        {"m": m, "target_dim": N, "components": [<Poly over (t, u1..um)>]}
    Expression  {"node": "EvPull"|"Chen"|"Wedge"|"Diff"|"Sum"|"Scale", ...}

Plot documents carry dimensions only; parsing one invents the names
t, u1..um and x1..xN unless a target chart is supplied.  to_doc() is the
one encoder, a walk by type through values and expression nodes (each
*_to_doc is it for one type), and from_doc() the one decoder, a walk by
type name.  dumps() is the single canonical renderer (sorted keys,
two-space indent, trailing newline) so equal values always serialize to
identical bytes.

A polynomial's term list is coded with no Fraction per term, straight
from the packed integer numerators and their common denominator: the
encoder codes each Poly by poly_to_doc for to_doc, and for to_text, which
the CLI writes its results with, leaves it for dumps to write by one %
template per (variable count, indent), so no term dict is built.
poly_from_doc reads each "num/den" as two ints straight into packed keys
over the lcm of the denominators.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd, lcm
from typing import Any, Callable, Mapping

from .forms import Chart, OrdinaryForm
from .generalized import GeneralizedForm
from .koszul import KoszulElement, KoszulParams
from .pathspace import (
    Chen,
    Diff,
    EvPull,
    PathFormExpr,
    Plot,
    Scale,
    Sum,
    Wedge,
)
from .polyring import _MASK, _W, MismatchError, Poly, _distinct, _pack, _unpack


class ParseError(ValueError):
    """A document does not match its declared shape."""


def dumps(doc: Any) -> str:
    """doc as canonical text: exactly the bytes of
    json.dumps(doc, indent=2, sort_keys=True) + "\n", rendered in one
    recursive pass whose strings are escaped by json's C encoder (with an
    indent, json.dumps runs its pure-Python encoder).  A Poly in doc is
    written as its poly_to_doc term list would be, by _poly_text."""
    parts: list[str] = []
    _render(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def to_text(value: Any) -> str:
    """dumps(to_doc(value)), with each polynomial left in the document and
    written by _poly_text, so no term dict is built."""
    return dumps(_encode(value, lambda poly: poly, MAX_EXPR_DEPTH))


def _render(value: Any, newline: str, emit: Callable[[str], Any]) -> None:
    """Emit value's text, its nested lines starting with newline plus two
    spaces: json.dumps's rules for indent=2 and sort_keys=True."""
    if isinstance(value, str):
        emit(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                # json's key rule: an int, float, bool or None key is written
                # as its JSON text in quotes, any other key is a TypeError
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}"
                    )
                key = json.dumps(key)
            emit(sep)
            emit(_encode_str(key))
            emit(": ")
            _render(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _render(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif type(value) is int:
        emit(int.__repr__(value))
    elif isinstance(value, Poly):
        emit(_poly_text(value, newline))
    else:
        emit(json.dumps(value))


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as e:  # bad syntax, or an integer past int()'s digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply") from e


def _construct(make: Callable[..., Any], *args: Any) -> Any:
    """make(*args), with a ValueError other than a MismatchError reported as
    a ParseError: the document's values fail the constructor's own checks."""
    try:
        return make(*args)
    except MismatchError:
        raise
    except ValueError as e:
        raise ParseError(str(e)) from e


# -- rationals ----------------------------------------------------------------


def _digits_error() -> ValueError:
    """The error for a result rational past int()'s digit limit."""
    limit = sys.get_int_max_str_digits()
    return ValueError(
        f"a rational in the result has more than {limit} digits, "
        "the limit on writing an integer as text"
    )


def frac_to_str(value: Fraction) -> str:
    """The text "num/den"; past int()'s digit limit, a ValueError naming it."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise _digits_error() from None


def _rational(text: Any) -> tuple[int, int]:
    """The numerator and positive denominator, as written and not reduced,
    of a string "num/den" or "num": ASCII digits, the numerator optionally
    signed with "-", read by int()."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (text.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ParseError(
            f"bad rational {text!r}: Invalid literal for Fraction: {text!r}"
        )
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError as e:  # a number past int()'s digit limit
        raise ParseError(f"bad rational {text!r}: {e}") from e
    if not d:
        raise ParseError(f"bad rational {text!r}: Fraction({n}, 0)")
    return n, d


def frac_from_str(text: Any) -> Fraction:
    """The rational a string "num/den" or "num" names, by _rational's
    grammar, normalised."""
    return Fraction(*_rational(text))


def _expect(doc: Any, kind: type, what: str) -> Any:
    """doc, if it is an instance of kind; a bool does not count as an int."""
    if not isinstance(doc, kind) or (kind is int and isinstance(doc, bool)):
        got = type(doc).__name__
        raise ParseError(f"expected {kind.__name__} for {what}, got {got}")
    return doc


def _count(doc: Any, what: str, limit: int | None = None) -> int:
    """doc, if it is a nonnegative integer, and at most limit if one is given."""
    if _expect(doc, int, what) < 0:
        raise ParseError(f"expected a nonnegative {what}, got {doc}")
    if limit is not None and doc > limit:
        raise ParseError(f"{what} is {doc}, above the limit of {limit}")
    return doc


def _entries(
    mapping: Mapping[tuple[int, ...], Any], key: str, value: str, encode: Callable
) -> list:
    """The document of a mapping from index tuples: a list of
    {key: [ints], value: encoded value} objects, by length, then index."""
    items = sorted(mapping.items(), key=lambda item: (len(item[0]), item[0]))
    return [{key: list(indices), value: encode(v)} for indices, v in items]


def _keyed(
    doc: Any, key: str, value: str, parse: Callable, what: str, index: Callable = tuple
) -> dict:
    """A list of {key: [ints], value: ...} objects as a dict from index(ints)
    (by default the index tuple) to parsed values, checked in document
    order, each entry's key before its value; a repeated index is an error."""
    out: dict[Any, Any] = {}
    for item in _expect(doc, list, what):
        obj = _expect(item, dict, f"an entry of {what}")
        items = obj.get(key)
        if type(items) is not list or not all(type(i) is int for i in items):
            # the slow path names the first offender, or passes subclasses
            for i in _expect(items, list, f"{what} {key}"):
                _expect(i, int, f"{what} {key}")
        indices = index(items)
        if indices in out:
            raise ParseError(f"duplicate {key} {list(items)} in {what}")
        out[indices] = parse(obj.get(value))
    return out


# -- polynomials --------------------------------------------------------------


def poly_to_doc(poly: Poly) -> list:
    """The term list of a polynomial, by exponent tuple, written straight
    from its packed numerators over their common denominator: the packed
    keys sort as the tuples do, and each coefficient is reduced by one gcd."""
    den, nums, count = poly._den, poly._nums, len(poly.variables)
    out = []
    try:
        for key in sorted(nums):
            n = nums[key]
            g = gcd(n, den)
            out.append({"coeff": f"{n // g}/{den // g}", "exps": _unpack(key, count)})
    except ValueError:
        raise _digits_error() from None
    return out


@functools.lru_cache(maxsize=256)
def _term_template(count: int, newline: str) -> str:
    """The % template of one term of a term list whose lines start with
    newline: the numerator and denominator of the coefficient, then
    `count` exponents, laid out as dumps lays out poly_to_doc's terms.
    The cache is bounded, as an expression's depth sets the indent."""
    inner = newline + "    "
    exps = "[" + ",".join([inner + "  %d"] * count) + inner + "]" if count else "[]"
    return f'{{{inner}"coeff": "%d/%d",{inner}"exps": {exps}{newline}  }}'


def _poly_text(poly: Poly, newline: str) -> str:
    """The text dumps writes for poly_to_doc(poly) at newline, straight
    from the packed keys and common denominator: one template per
    (variable count, newline) and one % per term."""
    den, nums, count = poly._den, poly._nums, len(poly.variables)
    if not nums:
        return "[]"
    template = _term_template(count, newline)
    # the fields of a key, first variable first, read with no Python call
    shifts = range(_W * (count - 1), -1, -_W)
    terms = []
    try:
        for key in sorted(nums):
            n = nums[key]
            g = gcd(n, den)
            exps = map(_MASK.__and__, map(key.__rshift__, shifts))
            terms.append(template % (n // g, den // g, *exps))
    except ValueError:
        raise _digits_error() from None
    item = newline + "  "
    return "[" + item + ("," + item).join(terms) + newline + "]"


def poly_from_doc(doc: Any, variables: tuple[str, ...]) -> Poly:
    """The polynomial of a term list over the given variables, read in one
    pass straight into packed keys and integer numerators over the lcm of
    the denominators.  Entries are checked in document order, each one's
    exps before its coeff, and the first faulty entry is the one reported."""
    names = _construct(_distinct, variables)

    def pack(exps: list) -> int:
        try:
            return _pack(exps, names)
        except ValueError as e:
            raise ParseError(str(e)) from e

    terms = _keyed(doc, "exps", "coeff", _rational, "a polynomial", pack)
    den = lcm(*(d for _, d in terms.values()))
    return Poly._make(names, {k: n * (den // d) for k, (n, d) in terms.items()}, den)


# -- charts and forms ---------------------------------------------------------


def chart_from_doc(doc: Any) -> Chart:
    names = _expect(doc, list, "a chart")
    return _construct(Chart, tuple(_expect(n, str, "a coordinate name") for n in names))


def form_to_doc(form: OrdinaryForm) -> dict:
    return _typed_doc(form, OrdinaryForm, "a form")


def form_from_doc(doc: Any) -> OrdinaryForm:
    obj = _expect(doc, dict, "a form")
    chart = chart_from_doc(obj.get("chart"))
    components = _keyed(
        obj.get("components"),
        "indices",
        "poly",
        lambda poly: poly_from_doc(poly, chart.coordinates),
        "form components",
    )
    return _construct(OrdinaryForm, chart, components)


# -- the Koszul algebra -------------------------------------------------------


def koszul_params_to_doc(params: KoszulParams) -> dict:
    return {"n": params.n, "k": [frac_to_str(c) for c in params.constants]}


def koszul_params_from_doc(doc: Any) -> KoszulParams:
    obj = _expect(doc, dict, "Koszul parameters")
    n = _count(obj.get("n"), "generator count")
    constants = [frac_from_str(c) for c in _expect(obj.get("k"), list, "constants")]
    if len(constants) != n:
        raise ParseError(f"expected {n} constants, got {len(constants)}")
    return KoszulParams(tuple(constants))


def koszul_to_doc(element: KoszulElement) -> dict:
    return _typed_doc(element, KoszulElement, "a Koszul element")


def koszul_from_doc(doc: Any) -> KoszulElement:
    obj = _expect(doc, dict, "a Koszul element")
    params = koszul_params_from_doc(obj)
    terms = _keyed(obj.get("terms"), "zetas", "coeff", frac_from_str, "Koszul terms")
    return _construct(KoszulElement, params, terms)


# -- generalized forms --------------------------------------------------------


def gen_to_doc(value: GeneralizedForm) -> dict:
    return _typed_doc(value, GeneralizedForm, "a generalized form")


def gen_from_doc(doc: Any) -> GeneralizedForm:
    obj = _expect(doc, dict, "a generalized form")
    chart = chart_from_doc(obj.get("chart"))
    params = koszul_params_from_doc(obj.get("koszul"))
    components = _keyed(
        obj.get("components"), "zetas", "form", form_from_doc, "components"
    )
    return _construct(GeneralizedForm, chart, params, components)


# -- plots ---------------------------------------------------------------------


def default_target_chart(dim: int) -> Chart:
    return Chart(tuple(f"x{i + 1}" for i in range(dim)))


def default_domain_chart(m: int) -> Chart:
    return Chart(tuple(f"u{i + 1}" for i in range(m)))


def plot_to_doc(plot: Plot) -> dict:
    return _typed_doc(plot, Plot, "a plot")


#: The largest dimension a plot document may declare for its domain (m) or
#: target: it names charts by dimension alone, so a few bytes could ask for
#: millions of coordinates.  The Python API takes charts of any size.
MAX_CHART_DIM = 16


def plot_from_doc(doc: Any, target: Chart | None = None) -> Plot:
    """Parse a plot, inventing coordinate names (t, u1..um, x1..xN)
    unless a target chart of the declared dimension is supplied."""
    obj = _expect(doc, dict, "a plot")
    m = _count(obj.get("m"), "dimension m", MAX_CHART_DIM)
    target_dim = _count(obj.get("target_dim"), "dimension target_dim", MAX_CHART_DIM)
    if target is None:
        target = default_target_chart(target_dim)
    elif target.dim != target_dim:
        raise MismatchError(
            f"plot targets dimension {target_dim}, chart has {target.dim}"
        )
    domain = default_domain_chart(m)
    cylinder = (Plot.time,) + domain.coordinates
    components = tuple(
        poly_from_doc(item, cylinder)
        for item in _expect(obj.get("components"), list, "plot components")
    )
    return _construct(Plot, target, domain, components)


# -- any value ------------------------------------------------------------------


def to_doc(value: Any) -> Any:
    """The document of a value, by its type; a tuple is a list, an int or
    a str is itself.  A bare Poly, whose term list names no variables, is
    a TypeError: poly_to_doc codes one inside a form or plot document."""
    return _encode(value, poly_to_doc, MAX_EXPR_DEPTH)


def _typed_doc(value: Any, cls: type, what: str) -> Any:
    """to_doc(value), if value is a cls; any other value is a TypeError."""
    if not isinstance(value, cls):
        raise TypeError(f"not {what}: {value!r}")
    return to_doc(value)


def _encode(value: Any, poly: Callable, depth: int) -> Any:
    """The document of value, each polynomial coded by `poly`, where at
    most `depth` more expression levels may sit below value."""
    if isinstance(value, OrdinaryForm):
        return {
            "chart": list(value.chart.coordinates),
            "components": _entries(value.components, "indices", "poly", poly),
        }
    if isinstance(value, KoszulElement):
        terms = _entries(value.terms, "zetas", "coeff", frac_to_str)
        return {**koszul_params_to_doc(value.params), "terms": terms}
    if isinstance(value, GeneralizedForm):
        return {
            "chart": list(value.chart.coordinates),
            "koszul": koszul_params_to_doc(value.params),
            "components": _entries(
                value.forms(), "zetas", "form", lambda form: _encode(form, poly, depth)
            ),
        }
    if isinstance(value, Plot):
        return {
            "m": value.domain.dim,
            "target_dim": value.target.dim,
            "components": list(map(poly, value.components)),
        }
    if isinstance(value, PathFormExpr):
        name = type(value).__name__
        if _NODES.get(name) is not type(value):
            raise TypeError(f"not a path-form expression: {value!r}")
        if depth < 0:
            raise ValueError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        doc: dict[str, Any] = {"node": name}
        for field, _, _ in value._fields:
            doc[field] = _encode(getattr(value, field), poly, depth - 1)
        return doc
    if isinstance(value, Fraction):
        return frac_to_str(value)
    if isinstance(value, tuple):
        return [_encode(item, poly, depth) for item in value]
    if type(value) in (int, str):
        return value
    raise TypeError(f"no document for {type(value).__name__} value {value!r}")


def from_doc(type_name: str, doc: Any, chart: Chart | None = None) -> Any:
    """The value of a document of the named type (one of to_doc's, or an
    annotation in an expression node's field table), by its type's decoder
    (a module global, looked up per call); a plot is read against `chart`."""
    return _decode(type_name, doc, chart, MAX_EXPR_DEPTH)


def _decode(type_name: str, doc: Any, chart: Chart | None, depth: int) -> Any:
    """from_doc's walk, where at most `depth` more expression levels may
    sit below doc."""
    if type_name == "OrdinaryForm":
        return form_from_doc(doc)
    if type_name == "KoszulElement":
        return koszul_from_doc(doc)
    if type_name == "GeneralizedForm":
        return gen_from_doc(doc)
    if type_name == "PathFormExpr":
        obj = _expect(doc, dict, "an expression")
        if depth < 0:
            raise ParseError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        node = obj.get("node")
        cls = _NODES.get(node) if isinstance(node, str) else None
        if cls is None:
            raise ParseError(f"unknown expression node {node!r}")
        args = []
        for name, kind, _ in cls._fields:
            args.append(_decode(kind, obj.get(name), None, depth - 1))
        return _construct(cls, *args)
    if type_name == "tuple[PathFormExpr, ...]":
        items = _expect(doc, list, "expressions")
        return tuple([_decode("PathFormExpr", item, None, depth) for item in items])
    if type_name == "Plot":
        return plot_from_doc(doc, chart)
    if type_name == "Fraction":
        return frac_from_str(doc)
    if type_name == "int":
        return _expect(doc, int, "an integer field")
    raise TypeError(f"no decoder for type {type_name!r}")


# -- path-form expressions ------------------------------------------------------


# A node's document holds its class name under "node" and each field of its
# field table under its name, read back by from_doc under its annotation.
_NODES = {cls.__name__: cls for cls in (EvPull, Chen, Wedge, Diff, Sum, Scale)}

#: The deepest expression to_doc writes and from_doc reads: the most nodes
#: below the root on any path down to a leaf.  Each walk counts it on the
#: way down, at most three frames per node, so this stays well inside
#: Python's default recursion limit, with room for the caller's frames.
MAX_EXPR_DEPTH = 200


def expr_to_doc(expr: PathFormExpr) -> dict:
    return _typed_doc(expr, PathFormExpr, "a path-form expression")


def expr_from_doc(doc: Any) -> PathFormExpr:
    return from_doc("PathFormExpr", doc)
