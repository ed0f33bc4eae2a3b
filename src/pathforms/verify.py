"""Seeded random generators and named property suites.

Every identity the package is built on is checked here on random
instances with exact equality; there are no tolerances.  Instances are
generated per (seed, suite, trial index), so a report is reproducible
bit-for-bit from its config (elapsed time aside) regardless of
execution order, and every failure carries its inputs for replay,
serialized in the JSON interchange format only when its check fails.

A suite is a generator of checks: per trial it yields (check name,
value that must be zero, inputs).  `run_suite` alone decides whether a
check failed and records it.  Every suite accepts the `perturb` mutation
and some accept their own; a mutation deliberately breaks the checked
identity in a known way, so the failure machinery itself is testable: a
suite that cannot flag a planted bug proves nothing when it passes.

Generators draw straight into canonical storage and build through the
trusted constructors, a generalized form on its words dx_I z_S.  They read
getrandbits as CPython 3.11's randint and sample do (`_randint`'s rule,
inline on the hot draws) and look coefficients up in a table, so the draws
rest on the Mersenne Twister words and rng.random() alone, not on random's
Python code, which may change.  tests/golden/suite_digests.json pins the
draw order: each polynomial term draws its coefficient before its exponents.
"""

from __future__ import annotations

import itertools
import random
import time
from copy import deepcopy
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, Optional

from .forms import Chart, OrdinaryForm, dx
from .generalized import GeneralizedForm, pair_encode
from .koszul import KoszulElement, KoszulParams
from .pathspace import (
    Plot,
    chen_integral,
    ev_pullback,
    eval_pathform,
    map_I,
    wedge_prime,
    wedge_prime_explicit,
)
from .polyring import _W, Poly, as_int_tuple
from .record import Record
from .serialize import MAX_CHART_DIM, default_domain_chart, default_target_chart, to_doc


# random rationals have numerator in [-4, 4] and denominator in [1, 4]
COEFF_BOUND = 4
# a multiple of every random denominator
_COMMON_DEN = lcm(*range(1, COEFF_BOUND + 1))
# rand_fraction's values, at n * COEFF_BOUND + d for its draws n of _NUMS
# values in _NUM_BITS bits and d of COEFF_BOUND values in _DEN_BITS bits
_NUMS = 2 * COEFF_BOUND + 1
_NUM_BITS, _DEN_BITS = _NUMS.bit_length(), COEFF_BOUND.bit_length()
_FRACTIONS = tuple(
    Fraction(n - COEFF_BOUND, d + 1) for n in range(_NUMS) for d in range(COEFF_BOUND)
)
# caps on GenConfig's work-size fields, past which one trial can take minutes:
# a generalized form has up to 2**koszul_n z-monomials
MAX_POLY_DEG = 64
MAX_KOSZUL_N = 10
# GenConfig's positive fields and their caps, plot_from_doc's on dimensions
_LIMITS = dict(chart_dim=MAX_CHART_DIM, plot_dim=MAX_CHART_DIM)
_LIMITS.update(poly_deg=MAX_POLY_DEG, koszul_n=MAX_KOSZUL_N)


class GenConfig(Record):
    """Seed and bounds of a verification run; the `verify` verb has one
    integer flag per field, with the field's default."""

    __slots__ = dict.fromkeys(
        ("seed", "chart_dim", "plot_dim", "poly_deg", "koszul_n", "trials"), "int"
    )

    def __init__(self, seed=0, chart_dim=3, plot_dim=2, poly_deg=3, koszul_n=3, trials=100):
        values = (seed, chart_dim, plot_dim, poly_deg, koszul_n, trials)
        Record.__init__(self, *as_int_tuple(values, "GenConfig fields"))
        for name in _LIMITS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name, limit in _LIMITS.items():
            if getattr(self, name) > limit:
                raise ValueError(f"{name} is above the limit of {limit}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")


class SuiteReport(Record):
    """Outcome of one suite run, mutable and unhashable; no failures is a pass."""

    __slots__ = dict(suite="str", trials="int", failures="list[dict]", elapsed="float")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        """The report's document, sharing no list or dict with the report."""
        doc = {name: deepcopy(getattr(self, name)) for name, _, _ in self._fields}
        return {**doc, "passed": self.passed}


def _rng(cfg: GenConfig, label: str, index: int) -> random.Random:
    # string seeding is stable across processes (no hash randomization)
    return random.Random(f"{cfg.seed}:{label}:{index}")


# -- random instances ----------------------------------------------------------


def _randint(rng: random.Random, low: int, high: int) -> int:
    """rng.randint(low, high) for low <= high, drawn the same way: k =
    n.bit_length() bits for the n values, redrawn while they read n or more."""
    n = high - low + 1
    while (r := rng.getrandbits(n.bit_length())) >= n:
        pass
    return low + r


def rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    """Fraction(randint(-COEFF_BOUND, COEFF_BOUND), randint(1, COEFF_BOUND)),
    redrawn while zero when `nonzero`, looked up in _FRACTIONS."""
    getrandbits = rng.getrandbits
    while True:
        while (num := getrandbits(_NUM_BITS)) >= _NUMS:
            pass
        while (den := getrandbits(_DEN_BITS)) >= COEFF_BOUND:
            pass
        if num != COEFF_BOUND or not nonzero:
            return _FRACTIONS[num * COEFF_BOUND + den]


def rand_poly(rng: random.Random, variables: tuple[str, ...], cfg: GenConfig) -> Poly:
    """A random polynomial of at most three terms of degree <= cfg.poly_deg.
    Each term draws its coefficient as rand_fraction does, then a degree and
    that many variables to raise by one; a later term on a monomial wins."""
    getrandbits = rng.getrandbits
    count = len(variables)
    units = [1 << s for s in range(_W * (count - 1), -1, -_W)]
    degrees = cfg.poly_deg + 1
    nums: dict[int, int] = {}
    while (terms := getrandbits(3)) > 3:
        pass
    for _ in range(terms):
        while (num := getrandbits(_NUM_BITS)) >= _NUMS:
            pass
        while (den := getrandbits(_DEN_BITS)) >= COEFF_BOUND:
            pass
        key = 0
        if count:
            while (degree := getrandbits(degrees.bit_length())) >= degrees:
                pass
            for _ in range(degree):
                while (var := getrandbits(count.bit_length())) >= count:
                    pass
                key += units[var]
        nums[key] = (num - COEFF_BOUND) * (_COMMON_DEN // (den + 1))
    return Poly._make(variables, nums, _COMMON_DEN)


def _rand_monomials(
    rng: random.Random, n: int, size: int, coeff: Callable, out: dict, tail: tuple = ()
) -> dict:
    """`out` with one or two random `size`-subsets I of range(n), if any, as
    keys I + tail, each drawn before its coefficient.  I is drawn as
    sorted(rng.sample(range(n), size)) is for n <= 21: each value at a position
    of the pool left, by _randint's rule, the pool's last value filling its place."""
    getrandbits = rng.getrandbits
    if 0 <= size <= n:
        for _ in range(_randint(rng, 1, 2)):
            pool = list(range(n))
            for left in range(n, n - size, -1):
                while (j := getrandbits(left.bit_length())) >= left:
                    pass
                pool[j], pool[left - 1] = pool[left - 1], pool[j]
            out[tuple(sorted(pool[n - size :])) + tail] = coeff()
    return out


def _sum_of_draws(rng: random.Random, draw: Callable):
    """The sum of one or two draws, an inhomogeneous element in general."""
    return draw() if _randint(rng, 1, 2) == 1 else draw() + draw()


def rand_form(
    rng: random.Random, chart: Chart, cfg: GenConfig, degree: Optional[int] = None
) -> OrdinaryForm:
    """A random homogeneous form; zero when the degree falls outside
    [0, dim], since those graded slots hold nothing else."""
    if degree is None:
        degree = _randint(rng, 0, chart.dim)
    coeff = partial(rand_poly, rng, chart.coordinates, cfg)
    return OrdinaryForm._trusted(chart, _rand_monomials(rng, chart.dim, degree, coeff, {}))


def rand_form_mixed(rng: random.Random, chart: Chart, cfg: GenConfig) -> OrdinaryForm:
    return _sum_of_draws(rng, partial(rand_form, rng, chart, cfg))


def rand_koszul_params(
    rng: random.Random, cfg: GenConfig, n: Optional[int] = None, nonzero: bool = False
) -> KoszulParams:
    if n is None:
        n = _randint(rng, 1, cfg.koszul_n)
    return KoszulParams(tuple(rand_fraction(rng, nonzero=nonzero) for _ in range(n)))


def rand_koszul(
    rng: random.Random,
    params: KoszulParams,
    cfg: GenConfig,
    degree: Optional[int] = None,
) -> KoszulElement:
    """A random homogeneous element of degree -s; zero outside [-n, 0]."""
    if degree is None:
        degree = -_randint(rng, 0, params.n)
    terms = _rand_monomials(rng, params.n, -degree, partial(rand_fraction, rng), {})
    return KoszulElement._trusted(params, terms)


def rand_koszul_mixed(
    rng: random.Random, params: KoszulParams, cfg: GenConfig
) -> KoszulElement:
    return _sum_of_draws(rng, partial(rand_koszul, rng, params, cfg))


def rand_genform(
    rng: random.Random,
    chart: Chart,
    params: KoszulParams,
    cfg: GenConfig,
    degree: Optional[int] = None,
) -> GeneralizedForm:
    """A random homogeneous generalized form of the given total degree."""
    dim, n = chart.dim, params.n
    if degree is None:
        degree = _randint(rng, -n, dim)
    coeff = partial(rand_poly, rng, chart.coordinates, cfg)
    words: dict[tuple[int, ...], Poly] = {}
    for size in range(max(0, -degree), min(n, dim - degree) + 1):
        for zetas in itertools.combinations(range(dim, dim + n), size):
            if rng.random() >= 0.4:
                _rand_monomials(rng, dim, degree + size, coeff, words, zetas)
    return GeneralizedForm._trusted((chart, params), words)


def rand_genform_mixed(
    rng: random.Random, chart: Chart, params: KoszulParams, cfg: GenConfig
) -> GeneralizedForm:
    return _sum_of_draws(rng, partial(rand_genform, rng, chart, params, cfg))


def rand_plot(rng: random.Random, target: Chart, cfg: GenConfig) -> Plot:
    m = _randint(rng, 1, cfg.plot_dim)
    domain = default_domain_chart(m)
    cylinder = (Plot.time,) + domain.coordinates
    components = tuple(rand_poly(rng, cylinder, cfg) for _ in range(target.dim))
    return Plot(target, domain, components)


def gen_random(kind: str, cfg: GenConfig, index: int = 0, degree: Optional[int] = None):
    """One random value of the named kind, deterministic in (seed, index).

    A "poly" value has no self-describing document (its term list carries
    no variables), so to_doc refuses it; serialize.poly_to_doc codes it
    against the chart's coordinates x1..x{chart_dim}."""
    rng = _rng(cfg, f"gen:{kind}", index)
    chart = default_target_chart(cfg.chart_dim)
    if kind == "poly":
        return rand_poly(rng, chart.coordinates, cfg)
    if kind == "form":
        return rand_form(rng, chart, cfg, degree=degree)
    if kind == "genform":
        params = rand_koszul_params(rng, cfg, n=cfg.koszul_n)
        return rand_genform(rng, chart, params, cfg, degree=degree)
    if kind == "plot":
        return rand_plot(rng, chart, cfg)
    raise ValueError(f"unknown kind {kind!r}")


# -- suites --------------------------------------------------------------------


def _algebras(
    rng: random.Random, chart: Chart, params: KoszulParams, cfg: GenConfig
) -> tuple[tuple, ...]:
    """One row per algebra the identity suites check: check-name prefix,
    d_squared input key, product, degree range, homogeneous element of a
    drawn degree, inhomogeneous element.  A Koszul draw s gives degree -s,
    of the same parity.  Each trial builds the table anew and reads the
    products off their classes then, so a patched method is the one used."""
    return (
        ("form", "form", OrdinaryForm.wedge, (0, chart.dim),
         lambda p: rand_form(rng, chart, cfg, degree=p),
         lambda: rand_form_mixed(rng, chart, cfg)),
        ("koszul", "koszul", KoszulElement.mul, (0, params.n),
         lambda s: rand_koszul(rng, params, cfg, degree=-s),
         lambda: rand_koszul_mixed(rng, params, cfg)),
        ("gen", "generalized", GeneralizedForm.wedge, (-params.n, chart.dim),
         lambda p: rand_genform(rng, chart, params, cfg, degree=p),
         lambda: rand_genform_mixed(rng, chart, params, cfg)),
    )


# Each random suite is a generator over one trial: it gets the trial's
# rng, the chart run_suite drew from it, the config and the mutation, and
# yields (check name, value that must be zero, inputs).  The three identity
# suites draw the Koszul parameters, then loop over the table above.


def _d_squared(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    params = rand_koszul_params(rng, cfg)
    for prefix, key, _, _, _, mixed in _algebras(rng, chart, params, cfg):
        x = mixed()
        yield f"{prefix}_d_squared", x.d().d(), {key: x}


def _leibniz(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    """d(ab) == (da)b + (-1)^p a(db) in each algebra."""
    params = rand_koszul_params(rng, cfg)
    for prefix, _, times, span, element, _ in _algebras(rng, chart, params, cfg):
        p, q = _randint(rng, *span), _randint(rng, *span)
        a, b = element(p), element(q)
        term = times(a, b.d())
        rhs = times(a.d(), b) + (term if p % 2 == 0 else -term)
        yield f"{prefix}_leibniz", times(a, b).d() - rhs, dict(left=a, right=b)


def _supercomm(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    """ab == (-1)^pq ba on homogeneous pairs and (ab)c == a(bc) on
    inhomogeneous triples in each algebra, then the tensor sign rule."""
    params = rand_koszul_params(rng, cfg)
    algebras = _algebras(rng, chart, params, cfg)
    for prefix, _, times, span, element, _ in algebras:
        p, q = _randint(rng, *span), _randint(rng, *span)
        a, b = element(p), element(q)
        flipped = times(b, a)
        delta = times(a, b) - (flipped if (p * q) % 2 == 0 else -flipped)
        yield f"{prefix}_supercomm", delta, dict(left=a, right=b)
    for prefix, _, times, _, _, mixed in algebras:
        a, b, c = mixed(), mixed(), mixed()
        delta = times(times(a, b), c) - times(a, times(b, c))
        yield f"{prefix}_assoc", delta, dict(a=a, b=b, c=c)

    # tensor sign rule: (a x u)(b x v) = (-1)^{|u| deg b} (a ^ b) x (uv)
    ts = _randint(rng, 0, params.n)
    tu = rand_koszul(rng, params, cfg, degree=-ts)
    tv = rand_koszul(rng, params, cfg, degree=-_randint(rng, 0, params.n))
    ta = rand_form(rng, chart, cfg, degree=_randint(rng, 0, chart.dim))
    tq = _randint(rng, 0, chart.dim)
    tb = rand_form(rng, chart, cfg, degree=tq)

    def tensor(form: OrdinaryForm, kz: KoszulElement) -> GeneralizedForm:
        return GeneralizedForm.from_form(form, params).wedge(
            GeneralizedForm.from_koszul(chart, kz)
        )

    expected = tensor(ta.wedge(tb), tu.mul(tv))
    if (ts * tq) % 2:
        expected = -expected
    delta = tensor(ta, tu).wedge(tensor(tb, tv)) - expected
    yield "tensor_sign_rule", delta, dict(a=ta, u=tu, b=tb, v=tv)


def _pair_equivalence(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    k = rand_fraction(rng, nonzero=True)

    p = _randint(rng, -1, chart.dim)
    q = _randint(rng, -1, chart.dim)
    a_p = rand_form(rng, chart, cfg, degree=p)
    a_next = rand_form(rng, chart, cfg, degree=p + 1)
    b_q = rand_form(rng, chart, cfg, degree=q)
    b_next = rand_form(rng, chart, cfg, degree=q + 1)
    enc_a = pair_encode(a_p, a_next, k)
    enc_b = pair_encode(b_q, b_next, k)

    # product: (a_p b_q, a_p b_{q+1} + (-1)^q a_{p+1} b_q)
    sign_q = 1 if q % 2 == 0 else -1
    if mutation == "wedge_sign":
        sign_q = -sign_q
    cross = a_next.wedge(b_q)
    second = a_p.wedge(b_next) + (cross if sign_q > 0 else -cross)
    formula = pair_encode(a_p.wedge(b_q), second, k)
    yield "pair_wedge", enc_a.wedge(enc_b) - formula, dict(left=enc_a, right=enc_b)

    # differential: (d a_p + (-1)^{p+1} k a_{p+1}, d a_next)
    sign_p = 1 if (p + 1) % 2 == 0 else -1
    kterm = a_next.scale(sign_p * k)
    if mutation == "drop_k":
        kterm = OrdinaryForm.zero(chart)
    dformula = pair_encode(a_p.d() + kterm, a_next.d(), k)
    yield "pair_d", enc_a.d() - dformula, dict(left=enc_a)


def _chain_homotopy(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    form = rand_form(rng, chart, cfg)
    plot = rand_plot(rng, chart, cfg)
    lhs = chen_integral(form.d(), plot) + chen_integral(form, plot).d()
    rhs = ev_pullback(1, form, plot) - ev_pullback(0, form, plot)
    yield "chain_homotopy", lhs - rhs, dict(form=form, plot=plot)


def _dI_commute(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    params = rand_koszul_params(rng, cfg, n=1, nonzero=True)
    alpha = rand_genform_mixed(rng, chart, params, cfg)
    plot = rand_plot(rng, chart, cfg)
    lhs = eval_pathform(map_I(alpha.d()), plot)
    rhs = eval_pathform(map_I(alpha), plot).d()
    yield "dI_commute", lhs - rhs, dict(generalized=alpha, plot=plot)


def _kernel(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    k = rand_fraction(rng, nonzero=True)
    f = OrdinaryForm.from_poly(chart, rand_poly(rng, chart.coordinates, cfg))
    g = OrdinaryForm.from_poly(chart, rand_poly(rng, chart.coordinates, cfg))
    zero = OrdinaryForm.zero(chart)
    element = pair_encode(zero, g, k) + pair_encode(zero, f, k).d()
    if mutation == "perturb_element":
        element = pair_encode(f, f.d().scale(2 / k), k)
    plot = rand_plot(rng, chart, cfg)
    value = eval_pathform(map_I(element), plot)
    yield "kernel", value, dict(element=element, plot=plot)


def _wedge_prime(rng: random.Random, chart: Chart, cfg: GenConfig, mutation):
    params = rand_koszul_params(rng, cfg, n=1, nonzero=True)
    p = _randint(rng, 1, chart.dim)
    q = _randint(rng, 1, chart.dim)
    a = rand_genform(rng, chart, params, cfg, degree=p)
    b = rand_genform(rng, chart, params, cfg, degree=q)
    plot = rand_plot(rng, chart, cfg)
    inputs = dict(left=a, right=b, plot=plot)

    product = eval_pathform(wedge_prime(a, b), plot)
    explicit = eval_pathform(wedge_prime_explicit(a, b), plot)
    yield "wedge_prime_explicit", product - explicit, inputs

    flipped = eval_pathform(wedge_prime(b, a), plot)
    delta = product - (flipped if (p * q) % 2 == 0 else -flipped)
    yield "wedge_prime_supercomm", delta, inputs

    left = eval_pathform(wedge_prime(a.d(), b), plot)
    right = eval_pathform(wedge_prime(a, b.d()), plot)
    rhs = left + (right if p % 2 == 0 else -right)
    yield "wedge_prime_leibniz", product.d() - rhs, inputs


# Injectivity in degrees >= 1 has no finite test, so the witness suite
# ships fixed instances: a nonzero element, a plot, and the hand-checked
# value of its image there.
class Witness(Record):
    """A generalized form, a plot, and the exact evaluation of its image."""

    __slots__ = dict(
        label="str", alpha="GeneralizedForm", plot="Plot", expected="OrdinaryForm"
    )


def injectivity_cases() -> tuple[Witness, ...]:
    x1, x12 = Chart(("x1",)), Chart(("x1", "x2"))
    u1 = Chart(("u1",))
    cyl = ("t", "u1")
    t = Poly.var(cyl, "t")
    tu1 = t * Poly.var(cyl, "u1")
    # x1 = t * u1: the endpoint pullback of dx1 is du1
    w1 = Witness(
        "degree 1, endpoint part",
        pair_encode(dx(x1, 0), OrdinaryForm.zero(x1), 1),
        Plot(x1, u1, (tu1,)),
        dx(u1, 0),
    )

    # x1 = t, x2 = t * u1: the t-integral of dx1 ^ dx2 is (1/2) du1
    w2 = Witness(
        "degree 1, integral part",
        pair_encode(OrdinaryForm.zero(x12), dx(x12, 0, 1), 1),
        Plot(x12, u1, (t, tu1)),
        OrdinaryForm.basis(u1, (0,), Fraction(1, 2)),
    )

    # x1 = t * u1, x2 = t * u2: endpoint pullback of dx1 ^ dx2 is du1 ^ du2
    u12 = Chart(("u1", "u2"))
    cyl3 = ("t", "u1", "u2")
    t3 = Poly.var(cyl3, "t")
    w3 = Witness(
        "degree 2, endpoint part",
        pair_encode(dx(x12, 0, 1), OrdinaryForm.zero(x12), 1),
        Plot(x12, u12, (t3 * Poly.var(cyl3, "u1"), t3 * Poly.var(cyl3, "u2"))),
        dx(u12, 0).wedge(dx(u12, 1)),
    )
    return (w1, w2, w3)


def _injectivity_witness(witness: Witness, cfg: GenConfig, mutation):
    """map_I(alpha) evaluates to the witness's expected value, which is
    nonzero, so matching it shows alpha is not in the kernel."""
    value = eval_pathform(map_I(witness.alpha), witness.plot) - witness.expected
    # the witness's fields, its label under "witness"
    values = {name: getattr(witness, name) for name, _, _ in witness._fields[1:]}
    yield "injectivity_witness", value, {"witness": witness.label, **values}


# the mutation every suite accepts: each check's value gains its unit
_PERTURB = "perturb"

# name -> (mutations besides _PERTURB, suite, fixed cases).  A suite with
# fixed cases runs one trial per case; any other runs cfg.trials trials,
# each with an rng labelled by the suite name and trial index.
_SUITES: dict[str, tuple[tuple[str, ...], Callable, Optional[Callable]]] = {
    "d_squared": ((), _d_squared, None),
    "leibniz": ((), _leibniz, None),
    "supercomm": ((), _supercomm, None),
    "pair_equivalence": (("wedge_sign", "drop_k"), _pair_equivalence, None),
    "chain_homotopy": ((), _chain_homotopy, None),
    "dI_commute": ((), _dI_commute, None),
    "kernel": (("perturb_element",), _kernel, None),
    "wedge_prime": ((), _wedge_prime, None),
    "injectivity_witness": ((), _injectivity_witness, injectivity_cases),
}

ALL_SUITES = tuple(_SUITES)


def run_suite(name: str, cfg: GenConfig, mutation: Optional[str] = None) -> SuiteReport:
    """Run a suite's trials.  A check fails when its value is nonzero, after
    the perturb mutation adds its unit; its failure record holds the
    check's inputs as documents."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {ALL_SUITES}")
    extra, suite, fixed = _SUITES[name]
    allowed = (_PERTURB,) + extra
    if mutation is not None and mutation not in allowed:
        raise ValueError(f"unknown mutation {mutation!r}; expected one of {allowed}")
    start = time.perf_counter()
    cases = fixed() if fixed is not None else None
    trials = cfg.trials if cases is None else len(cases)
    failures: list[dict] = []
    for i in range(trials):
        if cases is None:
            rng = _rng(cfg, name, i)
            chart = default_target_chart(_randint(rng, 1, cfg.chart_dim))
            checks = suite(rng, chart, cfg, mutation)
        else:
            checks = suite(cases[i], cfg, mutation)
        for check, value, inputs in checks:
            if mutation == _PERTURB:
                value = value + value.unit()
            if not value.is_zero:
                inputs = {key: to_doc(item) for key, item in inputs.items()}
                failures.append({"trial": i, "check": check, "inputs": inputs})
    elapsed = round(time.perf_counter() - start, 6)
    return SuiteReport(name, trials, failures, elapsed)


def run_all(cfg: GenConfig) -> list[SuiteReport]:
    return [run_suite(name, cfg) for name in ALL_SUITES]
