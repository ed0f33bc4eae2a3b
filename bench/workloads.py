"""The benchmark's workloads: seeded inputs, the timed ops, exact checks.

A workload is a fixed cycle of tasks, run again and again.  A task is a
short list of ops, each one timed call into pathforms, followed by an
exact check over the ops' outputs (zero tolerance, and never satisfied by
zero on both sides).  Every cycle repeats the same inputs, so every cycle
carries the same mix of op latencies and each op is timed many times in a
run; the seed picks the coefficients and, for `verify`, the suite seeds.

Ops reach pathforms through module attributes at call time, never through
names bound at set-up, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass
class Task:
    """Ops run in order (each gets the outputs so far), then one check.

    `check(outputs)` returns the names of the checks that failed.  `units`
    turns outputs into the throughput count (trials for `verify`, calls
    otherwise); `useful_docs` counts the input documents that a failure
    record kept.
    """

    label: str
    ops: list[tuple[str, Callable[[dict], object]]]
    check: Callable[[dict], list[str]]
    units: Callable[[dict], int] = len
    useful_docs: Callable[[dict], int] = lambda outputs: 0


@dataclass
class Workload:
    """Set-up result: the cycle of tasks to measure, how many cycles a
    traced pass runs, and the tail percentile to report.

    The tail percentile has at least ten samples beyond it in a run of
    the benchmark's length at the commit that defined it, and is kept
    fixed so that runs with more or fewer ops stay comparable (a run
    prints how many samples lie beyond it).  It times the number of ops
    in a cycle is not a whole number, so the nearest-rank tail picks the
    same op of the cycle however many whole cycles a run completes.
    """

    tasks: list[Task]
    trace_cycles: int
    tail_percentile: float


def _modules():
    names = (
        "cli", "forms", "generalized", "koszul", "pathspace", "polyring", "serialize", "verify",
    )
    return {name: importlib.import_module(f"pathforms.{name}") for name in names}


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))


def _full_poly(pf, rng: random.Random, variables: tuple[str, ...], degree: int):
    """Every monomial of total degree <= degree, with a nonzero coefficient."""
    terms = {
        exps: _rational(rng)
        for exps in itertools.product(range(degree + 1), repeat=len(variables))
        if sum(exps) <= degree
    }
    return pf["polyring"].Poly(variables, terms)


def _full_form(pf, rng: random.Random, chart, degree: int, coeff_degree: int):
    """A homogeneous form with every component present and full."""
    components = {
        indices: _full_poly(pf, rng, chart.coordinates, coeff_degree)
        for indices in itertools.combinations(range(chart.dim), degree)
    }
    return pf["forms"].OrdinaryForm(chart, components)


def _one(pf, chart):
    return pf["forms"].OrdinaryForm.from_poly(chart, chart.const(1))


# -- verify ---------------------------------------------------------------------

# Trials per run_suite call; one call is one op.
VERIFY_TRIALS = 20
# Suite seeds per cycle; each is run through every suite.
VERIFY_SEEDS = 30


def verify(seed: int, workdir: Path, fault: bool) -> Workload:
    """Each suite at the acceptance bounds (chart 3, plot 2, degree 3,
    Koszul n 3) on VERIFY_SEEDS suite seeds drawn from the benchmark seed;
    the fault is the suites' own planted "perturb" mutation."""
    pf = _modules()
    rng = random.Random(f"verify:{seed}")
    tasks = [
        _suite_task(pf, name, suite_seed, fault)
        for suite_seed in (rng.getrandbits(31) for _ in range(VERIFY_SEEDS))
        for name in pf["verify"].ALL_SUITES
    ]
    return Workload(tasks, trace_cycles=1, tail_percentile=99.0)


def _suite_task(pf, name: str, suite_seed: int, fault: bool) -> Task:
    cfg = pf["verify"].GenConfig(seed=suite_seed, trials=VERIFY_TRIALS)
    mutation = "perturb" if fault else None

    def run(outputs):
        return pf["verify"].run_suite(name, cfg, mutation=mutation)

    def check(outputs):
        report = outputs["run_suite"]
        return [f"trial {f['trial']} {f['check']}" for f in report.failures]

    def useful_docs(outputs):
        docs = {
            id(doc)
            for failure in outputs["run_suite"].failures
            for doc in failure["inputs"].values()
            if isinstance(doc, dict)
        }
        return len(docs)

    return Task(
        label=f"{name}@{suite_seed}",
        ops=[("run_suite", run)],
        check=check,
        units=lambda outputs: outputs["run_suite"].trials,
        useful_docs=useful_docs,
    )


# -- chen-dense -------------------------------------------------------------------

# (form degree, coefficient degree, plot degree), cheapest first.
CHEN_INSTANCES = (
    (2, 2, 2),
    (1, 2, 3),
    (2, 2, 3),
    (2, 3, 2),
    (1, 3, 2),
    (2, 3, 3),
)


def chen_dense(seed: int, workdir: Path, fault: bool) -> Workload:
    """CLI verbs on dense documents written to `workdir`.

    Each instance is a form w of degree 1 or 2 on a 3-dim chart, a plot
    over (t, u1, u2), and alpha = w1 + w2*z (n = 1, degrees 1 and 2), all
    with every coefficient full to the listed degree.  The fault adds one
    to a compared output.
    """
    pf = _modules()
    Chart = pf["forms"].Chart
    ser = pf["serialize"]
    chart = Chart(("x1", "x2", "x3"))
    cylinder = ("t", "u1", "u2")
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for i, (degree, coeff_degree, plot_degree) in enumerate(CHEN_INSTANCES):
        rng = random.Random(f"chen-dense:{seed}:{i}")
        w = _full_form(pf, rng, chart, degree, coeff_degree)
        plot = pf["pathspace"].Plot(
            chart,
            Chart(cylinder[1:]),
            tuple(_full_poly(pf, rng, cylinder, plot_degree) for _ in range(chart.dim)),
        )
        w1 = w if degree == 1 else _full_form(pf, rng, chart, 1, coeff_degree)
        w2 = w if degree == 2 else _full_form(pf, rng, chart, 2, coeff_degree)
        alpha = pf["generalized"].pair_encode(w1, w2, _rational(rng))
        docs = {
            "w": ser.form_to_doc(w),
            "dw": ser.form_to_doc(w.d()),
            "plot": ser.plot_to_doc(plot),
            "alpha": ser.gen_to_doc(alpha),
            "dalpha": ser.gen_to_doc(alpha.d()),
        }
        files = {}
        for key, doc in docs.items():
            files[key] = workdir / f"{i}-{key}.json"
            files[key].write_text(ser.dumps(doc))
        tasks.append(_chen_task(pf, f"chen-{i}", files, workdir / f"{i}-out", fault))
    return Workload(tasks, trace_cycles=1, tail_percentile=90.0)


def _chen_task(pf, label: str, files: dict[str, Path], out: Path, fault: bool) -> Task:
    f = {key: str(path) for key, path in files.items()}
    verbs = {
        "chen_w": ["chen", f["w"], f["plot"]],
        "chen_dw": ["chen", f["dw"], f["plot"]],
        "ev0_w": ["ev", f["w"], f["plot"], "--endpoint", "0"],
        "ev1_w": ["ev", f["w"], f["plot"], "--endpoint", "1"],
        "imap_alpha": ["imap", f["alpha"]],
        "imap_dalpha": ["imap", f["dalpha"]],
        "eval_alpha": ["eval", f"{out}-imap_alpha.json", f["plot"]],
        "eval_dalpha": ["eval", f"{out}-imap_dalpha.json", f["plot"]],
    }

    def op(name: str, argv: list[str]):
        path = Path(f"{out}-{name}.json")

        def run(outputs):
            status = pf["cli"].main(argv + ["--out", str(path)])
            if status != 0:
                raise RuntimeError(f"pathforms {argv[0]} exited with {status}")
            return path

        return name, run

    def read(outputs, name):
        ser = pf["serialize"]
        return ser.form_from_doc(ser.loads(outputs[name].read_text()))

    def check(outputs):
        chen_w, chen_dw, ev0, ev1, e_a, e_da = (
            read(outputs, name)
            for name in ("chen_w", "chen_dw", "ev0_w", "ev1_w", "eval_alpha", "eval_dalpha")
        )
        if fault:
            chen_dw = chen_dw + _one(pf, chen_dw.chart)
            e_da = e_da + _one(pf, e_da.chart)
        failed = []
        boundary = ev1 - ev0
        if boundary.is_zero or chen_dw + chen_w.d() != boundary:
            failed.append("chain_homotopy")
        d_after = e_a.d()
        if d_after.is_zero or e_da != d_after:
            failed.append("dI_commute")
        return failed

    return Task(label, [op(name, argv) for name, argv in verbs.items()], check)


# -- algebra-dense ------------------------------------------------------------------

# (n, coefficient degree, degrees of a, b, c); products of products reach
# coefficient degree 3 * coefficient degree.  A cycle has an odd number of
# ops (11 per n = 1 instance, 9 otherwise), so the median of a run's
# samples is the median of one op's repeats, not the mean of two ops far
# apart.
ALGEBRA_INSTANCES = (
    (1, 2, 0, 1, 1),
    (2, 2, 1, 0, 1),
    (3, 2, -1, 0, 1),
    (1, 3, 1, 1, 0),
    (3, 3, 0, 1, -1),
)


def algebra_dense(seed: int, workdir: Path, fault: bool) -> Workload:
    """GeneralizedForm.wedge and .d, and for n = 1 the pair formulas, on
    dense homogeneous elements over a 3-dim chart.  The fault adds one to
    a compared output."""
    pf = _modules()
    chart = pf["forms"].Chart(("x1", "x2", "x3"))
    tasks = []
    for i, (n, coeff_degree, *degrees) in enumerate(ALGEBRA_INSTANCES):
        rng = random.Random(f"algebra-dense:{seed}:{i}")
        params = pf["koszul"].KoszulParams(tuple(_rational(rng) for _ in range(n)))
        a, b, c = (
            _dense_generalized(pf, rng, chart, params, p, coeff_degree) for p in degrees
        )
        tasks.append(
            _algebra_task(pf, f"algebra-{i}", a, b, c, degrees[0], degrees[1], fault)
        )
    return Workload(tasks, trace_cycles=1, tail_percentile=95.0)


def _dense_generalized(pf, rng, chart, params, degree: int, coeff_degree: int):
    """Every z-monomial whose ordinary partner fits the chart, each full."""
    components = {
        indices: _full_form(pf, rng, chart, degree + size, coeff_degree)
        for size in range(params.n + 1)
        if 0 <= degree + size <= chart.dim
        for indices in itertools.combinations(range(params.n), size)
    }
    return pf["generalized"].GeneralizedForm(chart, params, components)


def _algebra_task(pf, label: str, a, b, c, p: int, q: int, fault: bool) -> Task:
    ops = [
        ("ab", lambda o: a.wedge(b)),
        ("bc", lambda o: b.wedge(c)),
        ("ab_c", lambda o: o["ab"].wedge(c)),
        ("a_bc", lambda o: a.wedge(o["bc"])),
        ("da", lambda o: a.d()),
        ("db", lambda o: b.d()),
        ("d_ab", lambda o: o["ab"].d()),
        ("da_b", lambda o: o["da"].wedge(b)),
        ("a_db", lambda o: a.wedge(o["db"])),
    ]
    if a.params.n == 1:
        ops.append(("pair_product", lambda o: _pair_product(pf, a, b, q)))
        ops.append(("pair_d", lambda o: _pair_d(pf, a, p)))

    def check(outputs):
        ab, ab_c = outputs["ab"], outputs["ab_c"]
        d_ab = outputs["d_ab"]
        if fault:
            one = pf["generalized"].GeneralizedForm.one(a.chart, a.params)
            ab_c = ab_c + one
            d_ab = d_ab + one
        failed = []
        if ab_c.is_zero or ab_c != outputs["a_bc"]:
            failed.append("associativity")
        a_db = outputs["a_db"]
        rhs = outputs["da_b"] + (a_db if p % 2 == 0 else -a_db)
        if rhs.is_zero or d_ab != rhs:
            failed.append("leibniz")
        if "pair_product" in outputs:
            if ab.is_zero or outputs["pair_product"] != ab:
                failed.append("pair_product")
            if outputs["da"].is_zero or outputs["pair_d"] != outputs["da"]:
                failed.append("pair_d")
        return failed

    return Task(label, ops, check)


def _pair_product(pf, a, b, q: int):
    """(a_p b_q, a_p b_{q+1} + (-1)^q a_{p+1} b_q) for n = 1 elements."""
    gen = pf["generalized"]
    a_p, a_next = gen.pair_decode(a)
    b_q, b_next = gen.pair_decode(b)
    cross = a_next.wedge(b_q)
    second = a_p.wedge(b_next) + (cross if q % 2 == 0 else -cross)
    return gen.pair_encode(a_p.wedge(b_q), second, a.params.constants[0])


def _pair_d(pf, a, p: int):
    """(d a_p + (-1)^{p+1} k a_{p+1}, d a_{p+1}) for an n = 1 element."""
    gen = pf["generalized"]
    k = a.params.constants[0]
    a_p, a_next = gen.pair_decode(a)
    kterm = a_next.scale(k if (p + 1) % 2 == 0 else -k)
    return gen.pair_encode(a_p.d() + kterm, a_next.d(), k)


WORKLOADS: dict[str, Callable[[int, Path, bool], Workload]] = {
    "verify": verify,
    "chen-dense": chen_dense,
    "algebra-dense": algebra_dense,
}
