"""Seeded random generators and named property suites.

Every identity the package is built on is checked here on random
instances with exact equality; there are no tolerances.  Instances are
generated per (seed, suite, trial index), so a report is reproducible
bit-for-bit from its config (elapsed time aside) regardless of
execution order, and every failure carries its inputs for replay,
serialized in the JSON interchange format only when its check fails.

Suites accept an optional `mutation` that deliberately breaks the
checked identity in a known way.  Mutations exist so the failure
machinery itself is testable: a suite that cannot flag a planted bug
proves nothing when it passes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Callable, Optional

from .forms import Chart, OrdinaryForm
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
from .polyring import Poly, as_int_tuple
from .serialize import default_domain_chart, default_target_chart, to_doc
from .witnesses import Witness, injectivity_witnesses


# random rationals have numerator in [-4, 4] and denominator in [1, 4]
COEFF_BOUND = 4


@dataclass(frozen=True)
class GenConfig:
    """Seed and bounds of a verification run; the `verify` verb has one
    integer flag per field, with the field's default."""

    seed: int = 0
    chart_dim: int = 3
    plot_dim: int = 2
    poly_deg: int = 3
    koszul_n: int = 3
    trials: int = 100

    def __post_init__(self):
        as_int_tuple(astuple(self), "GenConfig fields")
        for name in ("chart_dim", "plot_dim", "poly_deg", "koszul_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")


@dataclass
class SuiteReport:
    """Outcome of one suite run; empty failures means the suite passed."""

    suite: str
    trials: int
    failures: list[dict]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "elapsed": self.elapsed,
            "passed": self.passed,
        }


def _rng(cfg: GenConfig, label: str, index: int) -> random.Random:
    # string seeding is stable across processes (no hash randomization)
    return random.Random(f"{cfg.seed}:{label}:{index}")


# -- random instances ----------------------------------------------------------


def rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(
            rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(1, COEFF_BOUND)
        )
        if value != 0 or not nonzero:
            return value


def _rand_exponents(rng: random.Random, nvars: int, max_deg: int) -> tuple[int, ...]:
    exps = [0] * nvars
    if nvars:
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def rand_poly(rng: random.Random, variables: tuple[str, ...], cfg: GenConfig) -> Poly:
    """A random polynomial of at most three terms of degree <= cfg.poly_deg."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(0, 3)):
        terms[_rand_exponents(rng, len(variables), cfg.poly_deg)] = rand_fraction(rng)
    return Poly(variables, terms)


def rand_form(
    rng: random.Random, chart: Chart, cfg: GenConfig, degree: Optional[int] = None
) -> OrdinaryForm:
    """A random homogeneous form; zero when the degree falls outside
    [0, dim], since those graded slots hold nothing else."""
    if degree is None:
        degree = rng.randint(0, chart.dim)
    if degree < 0 or degree > chart.dim:
        return OrdinaryForm.zero(chart)
    components: dict[tuple[int, ...], Poly] = {}
    for _ in range(rng.randint(1, 2)):
        indices = tuple(sorted(rng.sample(range(chart.dim), degree)))
        components[indices] = rand_poly(rng, chart.coordinates, cfg)
    return OrdinaryForm(chart, components)


def rand_form_mixed(rng: random.Random, chart: Chart, cfg: GenConfig) -> OrdinaryForm:
    out = OrdinaryForm.zero(chart)
    for _ in range(rng.randint(1, 2)):
        out = out + rand_form(rng, chart, cfg)
    return out


def rand_koszul_params(
    rng: random.Random, cfg: GenConfig, n: Optional[int] = None, nonzero: bool = False
) -> KoszulParams:
    if n is None:
        n = rng.randint(1, cfg.koszul_n)
    return KoszulParams(tuple(rand_fraction(rng, nonzero=nonzero) for _ in range(n)))


def rand_koszul(
    rng: random.Random,
    params: KoszulParams,
    cfg: GenConfig,
    degree: Optional[int] = None,
) -> KoszulElement:
    """A random homogeneous element of degree -s; zero outside [-n, 0]."""
    if degree is None:
        degree = -rng.randint(0, params.n)
    size = -degree
    if size < 0 or size > params.n:
        return KoszulElement.zero(params)
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 2)):
        indices = tuple(sorted(rng.sample(range(params.n), size)))
        terms[indices] = rand_fraction(rng)
    return KoszulElement(params, terms)


def rand_koszul_mixed(
    rng: random.Random, params: KoszulParams, cfg: GenConfig
) -> KoszulElement:
    out = KoszulElement.zero(params)
    for _ in range(rng.randint(1, 2)):
        out = out + rand_koszul(rng, params, cfg)
    return out


def rand_genform(
    rng: random.Random,
    chart: Chart,
    params: KoszulParams,
    cfg: GenConfig,
    degree: Optional[int] = None,
) -> GeneralizedForm:
    """A random homogeneous generalized form of the given total degree."""
    if degree is None:
        degree = rng.randint(-params.n, chart.dim)
    components: dict[tuple[int, ...], OrdinaryForm] = {}
    for size in range(params.n + 1):
        ordinary = degree + size
        if ordinary < 0 or ordinary > chart.dim:
            continue
        for indices in itertools.combinations(range(params.n), size):
            if rng.random() < 0.4:
                continue
            components[indices] = rand_form(rng, chart, cfg, degree=ordinary)
    return GeneralizedForm(chart, params, components)


def rand_genform_mixed(
    rng: random.Random, chart: Chart, params: KoszulParams, cfg: GenConfig
) -> GeneralizedForm:
    out = GeneralizedForm.zero(chart, params)
    for _ in range(rng.randint(1, 2)):
        out = out + rand_genform(rng, chart, params, cfg)
    return out


def rand_plot(rng: random.Random, target: Chart, cfg: GenConfig) -> Plot:
    m = rng.randint(1, cfg.plot_dim)
    domain = default_domain_chart(m)
    cylinder = (Plot.time,) + domain.coordinates
    components = tuple(rand_poly(rng, cylinder, cfg) for _ in range(target.dim))
    return Plot(target, domain, components)


def gen_random(kind: str, cfg: GenConfig, index: int = 0, degree: Optional[int] = None):
    """One random value of the named kind, deterministic in (seed, index)."""
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


# -- suite plumbing -----------------------------------------------------------


class _Trial:
    """Collects failed checks of one trial, serializing inputs only on failure."""

    def __init__(self, index: int, mutation: Optional[str]):
        self.index = index
        self.mutation = mutation
        self.failures: list[dict] = []

    def check_zero(self, name: str, delta, /, **inputs) -> None:
        """Assert delta == 0; the perturb mutation adds delta's unit."""
        if self.mutation == "perturb":
            delta = delta + delta.unit()
        if not delta.is_zero:
            inputs = {key: to_doc(value) for key, value in inputs.items()}
            self.failures.append({"trial": self.index, "check": name, "inputs": inputs})


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


# -- suites --------------------------------------------------------------------
#
# Each suite is a per-trial check: it gets the trial that collects its
# failures, the trial's case and the config.  The three identity suites
# draw the chart and the Koszul parameters, then loop over the table above.


def _d_squared(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    params = rand_koszul_params(rng, cfg)
    for prefix, key, _, _, _, mixed in _algebras(rng, chart, params, cfg):
        x = mixed()
        trial.check_zero(f"{prefix}_d_squared", x.d().d(), **{key: x})


def _leibniz(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    """d(ab) == (da)b + (-1)^p a(db) in each algebra."""
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    params = rand_koszul_params(rng, cfg)
    for prefix, _, times, span, element, _ in _algebras(rng, chart, params, cfg):
        p, q = rng.randint(*span), rng.randint(*span)
        a, b = element(p), element(q)
        term = times(a, b.d())
        rhs = times(a.d(), b) + (term if p % 2 == 0 else -term)
        trial.check_zero(f"{prefix}_leibniz", times(a, b).d() - rhs, left=a, right=b)


def _supercomm(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    """ab == (-1)^pq ba on homogeneous pairs and (ab)c == a(bc) on
    inhomogeneous triples in each algebra, then the tensor sign rule."""
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    params = rand_koszul_params(rng, cfg)
    algebras = _algebras(rng, chart, params, cfg)
    for prefix, _, times, span, element, _ in algebras:
        p, q = rng.randint(*span), rng.randint(*span)
        a, b = element(p), element(q)
        flipped = times(b, a)
        delta = times(a, b) - (flipped if (p * q) % 2 == 0 else -flipped)
        trial.check_zero(f"{prefix}_supercomm", delta, left=a, right=b)
    for prefix, _, times, _, _, mixed in algebras:
        a, b, c = mixed(), mixed(), mixed()
        delta = times(times(a, b), c) - times(a, times(b, c))
        trial.check_zero(f"{prefix}_assoc", delta, a=a, b=b, c=c)

    # tensor sign rule: (a x u)(b x v) = (-1)^{|u| deg b} (a ^ b) x (uv)
    ts = rng.randint(0, params.n)
    tu = rand_koszul(rng, params, cfg, degree=-ts)
    tv = rand_koszul(rng, params, cfg, degree=-rng.randint(0, params.n))
    ta = rand_form(rng, chart, cfg, degree=rng.randint(0, chart.dim))
    tq = rng.randint(0, chart.dim)
    tb = rand_form(rng, chart, cfg, degree=tq)

    def tensor(form: OrdinaryForm, kz: KoszulElement) -> GeneralizedForm:
        return GeneralizedForm.from_form(form, params).wedge(
            GeneralizedForm.from_koszul(chart, kz)
        )

    expected = tensor(ta.wedge(tb), tu.mul(tv))
    if (ts * tq) % 2:
        expected = -expected
    delta = tensor(ta, tu).wedge(tensor(tb, tv)) - expected
    trial.check_zero("tensor_sign_rule", delta, a=ta, u=tu, b=tb, v=tv)


def _pair_equivalence(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    k = rand_fraction(rng, nonzero=True)

    p = rng.randint(-1, chart.dim)
    q = rng.randint(-1, chart.dim)
    a_p = rand_form(rng, chart, cfg, degree=p)
    a_next = rand_form(rng, chart, cfg, degree=p + 1)
    b_q = rand_form(rng, chart, cfg, degree=q)
    b_next = rand_form(rng, chart, cfg, degree=q + 1)
    enc_a = pair_encode(a_p, a_next, k)
    enc_b = pair_encode(b_q, b_next, k)

    # product: (a_p b_q, a_p b_{q+1} + (-1)^q a_{p+1} b_q)
    sign_q = 1 if q % 2 == 0 else -1
    if trial.mutation == "wedge_sign":
        sign_q = -sign_q
    cross = a_next.wedge(b_q)
    second = a_p.wedge(b_next) + (cross if sign_q > 0 else -cross)
    formula = pair_encode(a_p.wedge(b_q), second, k)
    delta = enc_a.wedge(enc_b) - formula
    trial.check_zero("pair_wedge", delta, left=enc_a, right=enc_b)

    # differential: (d a_p + (-1)^{p+1} k a_{p+1}, d a_next)
    sign_p = 1 if (p + 1) % 2 == 0 else -1
    kterm = a_next.scale(sign_p * k)
    if trial.mutation == "drop_k":
        kterm = OrdinaryForm.zero(chart)
    dformula = pair_encode(a_p.d() + kterm, a_next.d(), k)
    trial.check_zero("pair_d", enc_a.d() - dformula, left=enc_a)


def _chain_homotopy(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    form = rand_form(rng, chart, cfg)
    plot = rand_plot(rng, chart, cfg)
    lhs = chen_integral(form.d(), plot) + chen_integral(form, plot).d()
    rhs = ev_pullback(1, form, plot) - ev_pullback(0, form, plot)
    trial.check_zero("chain_homotopy", lhs - rhs, form=form, plot=plot)


def _dI_commute(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    params = rand_koszul_params(rng, cfg, n=1, nonzero=True)
    alpha = rand_genform_mixed(rng, chart, params, cfg)
    plot = rand_plot(rng, chart, cfg)
    lhs = eval_pathform(map_I(alpha.d()), plot)
    rhs = eval_pathform(map_I(alpha), plot).d()
    trial.check_zero("dI_commute", lhs - rhs, generalized=alpha, plot=plot)


def _kernel(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    k = rand_fraction(rng, nonzero=True)
    f = OrdinaryForm.from_poly(chart, rand_poly(rng, chart.coordinates, cfg))
    g = OrdinaryForm.from_poly(chart, rand_poly(rng, chart.coordinates, cfg))
    zero = OrdinaryForm.zero(chart)
    element = pair_encode(zero, g, k) + pair_encode(zero, f, k).d()
    if trial.mutation == "perturb_element":
        element = pair_encode(f, f.d().scale(2 / k), k)
    plot = rand_plot(rng, chart, cfg)
    value = eval_pathform(map_I(element), plot)
    trial.check_zero("kernel", value, element=element, plot=plot)


def _wedge_prime(trial: _Trial, rng: random.Random, cfg: GenConfig) -> None:
    chart = default_target_chart(rng.randint(1, cfg.chart_dim))
    params = rand_koszul_params(rng, cfg, n=1, nonzero=True)
    p = rng.randint(1, chart.dim)
    q = rng.randint(1, chart.dim)
    a = rand_genform(rng, chart, params, cfg, degree=p)
    b = rand_genform(rng, chart, params, cfg, degree=q)
    plot = rand_plot(rng, chart, cfg)
    inputs = {"left": a, "right": b, "plot": plot}

    product = eval_pathform(wedge_prime(a, b), plot)
    explicit = eval_pathform(wedge_prime_explicit(a, b), plot)
    trial.check_zero("wedge_prime_explicit", product - explicit, **inputs)

    flipped = eval_pathform(wedge_prime(b, a), plot)
    delta = product - (flipped if (p * q) % 2 == 0 else -flipped)
    trial.check_zero("wedge_prime_supercomm", delta, **inputs)

    left = eval_pathform(wedge_prime(a.d(), b), plot)
    right = eval_pathform(wedge_prime(a, b.d()), plot)
    rhs = left + (right if p % 2 == 0 else -right)
    trial.check_zero("wedge_prime_leibniz", product.d() - rhs, **inputs)


def _injectivity_witness(trial: _Trial, witness: Witness, cfg: GenConfig) -> None:
    """map_I(alpha) evaluates to the witness's expected value, which is
    nonzero, so matching it shows alpha is not in the kernel."""
    trial.check_zero(
        "injectivity_witness",
        eval_pathform(map_I(witness.alpha), witness.plot) - witness.expected,
        witness=witness.label,
        alpha=witness.alpha,
        plot=witness.plot,
        expected=witness.expected,
    )


# name -> (allowed mutations, per-trial check, fixed cases).  A suite with
# fixed cases runs one trial per case; any other runs cfg.trials trials,
# whose cases are random sources labelled by the suite name and trial index.
_SUITES: dict[str, tuple[tuple[str, ...], Callable, Optional[Callable]]] = {
    "d_squared": (("perturb",), _d_squared, None),
    "leibniz": (("perturb",), _leibniz, None),
    "supercomm": (("perturb",), _supercomm, None),
    "pair_equivalence": (("perturb", "wedge_sign", "drop_k"), _pair_equivalence, None),
    "chain_homotopy": (("perturb",), _chain_homotopy, None),
    "dI_commute": (("perturb",), _dI_commute, None),
    "kernel": (("perturb", "perturb_element"), _kernel, None),
    "wedge_prime": (("perturb",), _wedge_prime, None),
    "injectivity_witness": (("perturb",), _injectivity_witness, injectivity_witnesses),
}

ALL_SUITES = tuple(_SUITES)


def run_suite(name: str, cfg: GenConfig, mutation: Optional[str] = None) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {ALL_SUITES}")
    allowed, check, fixed = _SUITES[name]
    if mutation is not None and mutation not in allowed:
        raise ValueError(f"unknown mutation {mutation!r}; expected one of {allowed}")
    start = time.perf_counter()
    if fixed is None:
        trials = cfg.trials
        cases = (_rng(cfg, name, i) for i in range(trials))
    else:
        cases = fixed()
        trials = len(cases)
    failures: list[dict] = []
    for i, case in enumerate(cases):
        trial = _Trial(i, mutation)
        check(trial, case, cfg)
        failures.extend(trial.failures)
    elapsed = round(time.perf_counter() - start, 6)
    return SuiteReport(name, trials, failures, elapsed)


def run_all(cfg: GenConfig) -> list[SuiteReport]:
    return [run_suite(name, cfg) for name in ALL_SUITES]
