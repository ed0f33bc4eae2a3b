"""Polynomial operations that the package itself does not need, written
on the public term mapping alone, so that they share no code with the
packed keys they are used to check."""

from fractions import Fraction

from pathforms.polyring import MismatchError, Poly


def set_var(poly: Poly, name: str, value) -> Poly:
    """poly with the rational `value` put for the variable `name`, over the
    same variables."""
    i = poly.variables.index(name)
    out: dict = {}
    for exps, c in poly.terms.items():
        key = exps[:i] + (0,) + exps[i + 1 :]
        out[key] = out.get(key, 0) + c * Fraction(value) ** exps[i]
    return Poly(poly.variables, out)


def drop_var(poly: Poly, name: str) -> Poly:
    """poly over its variables without `name`, which it must not use."""
    i = poly.variables.index(name)
    if any(exps[i] for exps in poly.terms):
        raise MismatchError(f"polynomial still depends on {name!r}")
    names = poly.variables[:i] + poly.variables[i + 1 :]
    return Poly(names, {exps[:i] + exps[i + 1 :]: c for exps, c in poly.terms.items()})


def total_degree(poly: Poly) -> int:
    """The largest total degree of a term; 0 for the zero polynomial."""
    return max((sum(exps) for exps in poly.terms), default=0)
