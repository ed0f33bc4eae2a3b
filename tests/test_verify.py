"""The property suites: they pass honestly, reproduce bit-for-bit from
their config, and catch planted bugs."""

import hashlib
import itertools
import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from conftest import python_calls

import pathforms.serialize
import pathforms.verify
from pathforms.forms import OrdinaryForm
from pathforms.generalized import GeneralizedForm
from pathforms.koszul import KoszulElement
from pathforms.pathspace import Plot
from pathforms.polyring import Poly
from pathforms.serialize import (
    MAX_CHART_DIM,
    default_target_chart,
    dumps,
    from_doc,
    gen_from_doc,
    gen_to_doc,
    plot_from_doc,
    plot_to_doc,
    to_doc,
)
from pathforms.verify import (
    ALL_SUITES,
    COEFF_BOUND,
    MAX_KOSZUL_N,
    MAX_POLY_DEG,
    GenConfig,
    _rand_monomials,
    _randint,
    _rng,
    gen_random,
    rand_fraction,
    rand_form,
    rand_form_mixed,
    rand_genform,
    rand_genform_mixed,
    rand_koszul,
    rand_koszul_mixed,
    rand_koszul_params,
    rand_plot,
    rand_poly,
    run_all,
    run_suite,
)

SMALL = GenConfig(seed=7, trials=12)


# range sizes 1-70, and 2**w - 1, 2**w and 2**w + 1 for bit widths w = 1-70
RANGE_SIZES = sorted(
    set(range(1, 71)) | {2**w + e for w in range(1, 71) for e in (-1, 0, 1)}
)


@pytest.mark.parametrize("seed", range(40))
def test_randint_draws_as_random_does(seed):
    # the same values and the same Mersenne Twister state afterwards, so the
    # next getrandbits agrees too
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in RANGE_SIZES:
        low = ours.getrandbits(8) - 128
        assert theirs.getrandbits(8) - 128 == low
        for _ in range(3):
            assert _randint(ours, low, low + n - 1) == theirs.randint(low, low + n - 1)
            assert _randint(ours, 0, n - 1) == theirs.randrange(n)
        assert ours.getrandbits(32) == theirs.getrandbits(32)


@pytest.mark.parametrize("seed", range(40))
def test_subsets_draw_as_random_sample_does(seed):
    # populations up to 16, the most a chart or a capped Koszul algebra has,
    # where sample takes the pool branch the draw copies; each subset is
    # drawn before its coefficient, here the draw's index
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(MAX_CHART_DIM + 1):
        for k in range(n + 1):
            drawn = _rand_monomials(ours, n, k, itertools.count().__next__, {}, (n,))
            expected = {}
            for i in range(theirs.randint(1, 2)):
                expected[tuple(sorted(theirs.sample(range(n), k))) + (n,)] = i
            assert drawn == expected
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", range(40))
def test_rand_fraction_draws_as_random_does(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for nonzero in (False, True) * 20:
        expected = 0
        while expected == 0:
            num = theirs.randint(-COEFF_BOUND, COEFF_BOUND)
            expected = Fraction(num, theirs.randint(1, COEFF_BOUND))
            if not nonzero:
                break
        assert rand_fraction(ours, nonzero=nonzero) == expected
        assert ours.getstate() == theirs.getstate()



@pytest.mark.parametrize("suite", ALL_SUITES)
def test_suites_pass(suite):
    report = run_suite(suite, SMALL)
    assert report.passed
    assert report.failures == []
    assert report.suite == suite


def test_run_all_covers_every_suite():
    reports = run_all(SMALL)
    assert [r.suite for r in reports] == list(ALL_SUITES)
    assert all(r.passed for r in reports)


def test_reports_reproduce_modulo_elapsed():
    first = [r.to_doc() for r in run_all(GenConfig(seed=3, trials=6))]
    second = [r.to_doc() for r in run_all(GenConfig(seed=3, trials=6))]
    for a, b in zip(first, second):
        a.pop("elapsed")
        b.pop("elapsed")
    assert first == second


def test_zero_trials_pass_vacuously():
    cfg = GenConfig(seed=0, trials=0)
    for suite in ALL_SUITES:
        report = run_suite(suite, cfg)
        assert report.passed
        # the witness suite runs its fixed list regardless of cfg.trials
        if suite == "injectivity_witness":
            assert report.trials == 3
        else:
            assert report.trials == 0


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, chart_dim=0)
    with pytest.raises(ValueError):
        GenConfig(seed=0, trials=-1)
    with pytest.raises(ValueError):
        GenConfig(seed=0, koszul_n=0)


@pytest.mark.parametrize("field", ["chart_dim", "plot_dim"])
def test_config_dimensions_stay_within_plot_documents(field):
    # a failure record's plot must read back, and plot_from_doc refuses a
    # dimension above MAX_CHART_DIM
    with pytest.raises(ValueError, match="limit of 16"):
        GenConfig(**{field: MAX_CHART_DIM + 1})


@pytest.mark.parametrize(
    "field,limit", [("poly_deg", MAX_POLY_DEG), ("koszul_n", MAX_KOSZUL_N)]
)
def test_config_work_sizes_are_capped(field, limit):
    # past the cap one trial could run for minutes
    assert getattr(GenConfig(**{field: limit}), field) == limit
    for value in (limit + 1, 10**6):
        with pytest.raises(ValueError, match=f"^{field} is above the limit of {limit}$"):
            GenConfig(**{field: value})


def test_plots_drawn_at_the_dimension_limit_round_trip():
    cfg = GenConfig(chart_dim=MAX_CHART_DIM, plot_dim=MAX_CHART_DIM)
    plots = [gen_random("plot", cfg, index=i) for i in range(24)]
    assert {plot.target.dim for plot in plots} == {MAX_CHART_DIM}
    assert max(plot.domain.dim for plot in plots) == MAX_CHART_DIM  # index 20
    for plot in plots:
        assert plot_from_doc(plot_to_doc(plot), plot.target) == plot


@pytest.mark.parametrize(
    "field,value",
    [("trials", True), ("chart_dim", 2.5), ("koszul_n", 2.0), ("seed", 1.5)],
)
def test_config_fields_must_be_integers(field, value):
    # these used to build: trials=True reported "trials": true, and
    # chart_dim=2.5 failed later inside random.randrange
    with pytest.raises(TypeError):
        GenConfig(**{"seed": 0, field: value})


def test_unknown_suite_and_mutation():
    with pytest.raises(ValueError):
        run_suite("nope", SMALL)
    with pytest.raises(ValueError):
        run_suite("d_squared", SMALL, mutation="wedge_sign")
    with pytest.raises(ValueError):
        run_suite("pair_equivalence", SMALL, mutation="nope")


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_perturb_mutation_flags_every_suite(suite):
    report = run_suite(suite, GenConfig(seed=7, trials=5), mutation="perturb")
    assert not report.passed


@pytest.mark.parametrize(
    "suite,mutation",
    [
        ("pair_equivalence", "wedge_sign"),
        ("pair_equivalence", "drop_k"),
        ("kernel", "perturb_element"),
    ],
)
def test_targeted_mutations_are_caught(suite, mutation):
    report = run_suite(suite, GenConfig(seed=7, trials=30), mutation=mutation)
    assert not report.passed
    assert report.trials == 30
    assert len(report.failures) < 3 * report.trials


def test_failures_carry_replayable_inputs():
    report = run_suite(
        "pair_equivalence", GenConfig(seed=7, trials=30), mutation="drop_k"
    )
    failure = report.failures[0]
    assert set(failure) == {"trial", "check", "inputs"}
    assert failure["check"] == "pair_d"
    alpha = gen_from_doc(failure["inputs"]["left"])
    assert isinstance(alpha, GeneralizedForm)
    assert not alpha.is_zero


def test_failures_identify_trial_indices():
    report = run_suite("kernel", GenConfig(seed=7, trials=30), mutation="perturb_element")
    indices = [f["trial"] for f in report.failures]
    assert indices == sorted(indices)
    assert all(0 <= i < 30 for i in indices)
    replayed = plot_from_doc(report.failures[0]["inputs"]["plot"])
    assert isinstance(replayed, Plot)


def test_report_doc_shape():
    doc = run_suite("d_squared", GenConfig(seed=1, trials=2)).to_doc()
    assert set(doc) == {"suite", "trials", "failures", "elapsed", "passed"}
    assert doc["suite"] == "d_squared"
    assert doc["trials"] == 2
    assert doc["passed"] is True
    assert isinstance(doc["elapsed"], float)


def test_gen_random_is_deterministic_per_index():
    cfg = GenConfig(seed=42)
    for kind in ("poly", "form", "genform", "plot"):
        a = gen_random(kind, cfg, index=5)
        b = gen_random(kind, cfg, index=5)
        if kind == "plot":
            assert a.components == b.components
        else:
            assert a == b
    polys = {str(gen_random("poly", cfg, index=i)) for i in range(8)}
    assert len(polys) > 1


def test_gen_random_degree_control():
    cfg = GenConfig(seed=42, chart_dim=2)
    form = gen_random("form", cfg, degree=2)
    assert isinstance(form, OrdinaryForm)
    assert form.degrees() in ({2}, set())
    assert gen_random("form", cfg, degree=9).is_zero
    assert gen_random("form", cfg, degree=-1).is_zero
    with pytest.raises(ValueError):
        gen_random("matrix", cfg)


def test_generated_instances_respect_bounds():
    cfg = GenConfig(seed=9, chart_dim=3, poly_deg=3, trials=20)
    for i in range(20):
        poly = gen_random("poly", cfg, index=i)
        assert isinstance(poly, Poly)
        assert poly.total_degree() <= cfg.poly_deg
        assert all(
            abs(c.numerator) <= COEFF_BOUND and c.denominator <= COEFF_BOUND
            for c in poly.terms.values()
        )
        plot = gen_random("plot", cfg, index=i)
        assert 1 <= plot.domain.dim <= cfg.plot_dim
        assert plot.target.dim == cfg.chart_dim


# The generators build values through the trusted constructors, which
# check nothing; each value must equal, and hash like, its rebuild through
# the checked public constructors.
TRUSTED_CONFIGS = [
    GenConfig(seed=seed, chart_dim=c, poly_deg=d, plot_dim=m)
    for seed, (c, d, m) in enumerate(
        itertools.product((1, 2, 3), (1, 2, 3, 4), (1, 2))
    )
]


def _checked_rebuild(value):
    if isinstance(value, Poly):
        return Poly(value.variables, dict(value.terms))
    if isinstance(value, OrdinaryForm):
        comps = {i: _checked_rebuild(p) for i, p in value.components.items()}
        return OrdinaryForm(value.chart, comps)
    if isinstance(value, KoszulElement):
        return KoszulElement(value.params, dict(value.terms))
    if isinstance(value, GeneralizedForm):
        comps = {i: _checked_rebuild(f) for i, f in value.forms().items()}
        return GeneralizedForm(value.chart, value.params, comps)
    assert isinstance(value, Plot)
    comps = tuple(_checked_rebuild(p) for p in value.components)
    return Plot(value.target, value.domain, comps)


def _assert_canonical(value):
    rebuilt = _checked_rebuild(value)
    assert rebuilt == value
    assert hash(rebuilt) == hash(value)


@pytest.mark.parametrize("cfg", TRUSTED_CONFIGS, ids=lambda cfg: str(astuple(cfg)))
def test_gen_random_values_match_their_checked_rebuild(cfg):
    for kind in ("poly", "form", "genform", "plot"):
        for index in range(6):
            _assert_canonical(gen_random(kind, cfg, index=index))


@pytest.mark.parametrize("cfg", TRUSTED_CONFIGS, ids=lambda cfg: str(astuple(cfg)))
def test_generators_match_their_checked_rebuild(cfg):
    chart = default_target_chart(cfg.chart_dim)
    for index in range(4):
        rng = _rng(cfg, "trusted", index)
        params = rand_koszul_params(rng, cfg)
        drawn = [
            rand_poly(rng, chart.coordinates, cfg),
            rand_form(rng, chart, cfg),
            rand_form_mixed(rng, chart, cfg),
            rand_koszul(rng, params, cfg),
            rand_koszul_mixed(rng, params, cfg),
            rand_genform(rng, chart, params, cfg),
            rand_genform_mixed(rng, chart, params, cfg),
            rand_plot(rng, chart, cfg),
        ]
        for value in drawn:
            _assert_canonical(value)


def test_supercomm_trials_stay_cheap_in_python_calls():
    # about 5,000: the bound fails if draws go back through random's Python
    # code, or mixed elements through a checked zero, which made it 9,057
    assert python_calls(run_suite, "supercomm", GenConfig(seed=0, trials=5)) <= 6000


def test_rand_genform_builds_no_checked_generalized_form(monkeypatch):
    calls = []
    init = GeneralizedForm.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GeneralizedForm, "__init__", counted)
    for cfg in TRUSTED_CONFIGS:
        rng = _rng(cfg, "trusted", 0)
        chart = default_target_chart(cfg.chart_dim)
        params = rand_koszul_params(rng, cfg)
        assert rand_genform(rng, chart, params, cfg).params is params
        rand_genform_mixed(rng, chart, params, cfg)
    assert calls == []


def test_form_docs_round_trip_through_failure_records():
    # the serialized inputs in a failure are the same docs the library emits
    report = run_suite(
        "pair_equivalence", GenConfig(seed=7, trials=30), mutation="wedge_sign"
    )
    failure = next(f for f in report.failures if f["check"] == "pair_wedge")
    left = gen_from_doc(failure["inputs"]["left"])
    right = gen_from_doc(failure["inputs"]["right"])
    assert gen_to_doc(left) == failure["inputs"]["left"]
    assert left.chart == right.chart


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_passing_checks_serialize_nothing(suite, monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing check serialized its inputs")

    for module in (pathforms.serialize, pathforms.verify):
        for name in list(vars(module)):
            if name.endswith("to_doc") and callable(getattr(module, name)):
                monkeypatch.setattr(module, name, refuse)
    assert run_suite(suite, GenConfig(seed=7, trials=5)).passed


def _input_type(check: str, key: str) -> str:
    """The type name from_doc reads the input `key` of a failed `check` by."""
    if key == "plot":
        return "Plot"
    if key in ("form", "expected") or check.startswith("form_"):
        return "OrdinaryForm"
    if check == "tensor_sign_rule":
        return "OrdinaryForm" if key in ("a", "b") else "KoszulElement"
    if key == "koszul" or check.startswith("koszul_"):
        return "KoszulElement"
    return "GeneralizedForm"


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_perturbed_failure_inputs_decode(suite):
    report = run_suite(suite, GenConfig(seed=7, trials=5), mutation="perturb")
    assert report.failures
    for failure in report.failures:
        inputs = dict(failure["inputs"])
        if failure["check"] == "injectivity_witness":
            assert isinstance(inputs.pop("witness"), str)
        assert inputs
        for key, doc in inputs.items():
            value = from_doc(_input_type(failure["check"], key), doc)
            assert to_doc(value) == doc


_PREFIXES = ("form", "koszul", "gen")

# every check each suite runs per trial, in order, with its input keys
SUITE_RECORDS = {
    "d_squared": [
        ("form_d_squared", ["form"]),
        ("koszul_d_squared", ["koszul"]),
        ("gen_d_squared", ["generalized"]),
    ],
    "leibniz": [(f"{p}_leibniz", ["left", "right"]) for p in _PREFIXES],
    "supercomm": [(f"{p}_supercomm", ["left", "right"]) for p in _PREFIXES]
    + [(f"{p}_assoc", ["a", "b", "c"]) for p in _PREFIXES]
    + [("tensor_sign_rule", ["a", "u", "b", "v"])],
    "pair_equivalence": [("pair_wedge", ["left", "right"]), ("pair_d", ["left"])],
    "chain_homotopy": [("chain_homotopy", ["form", "plot"])],
    "dI_commute": [("dI_commute", ["generalized", "plot"])],
    "kernel": [("kernel", ["element", "plot"])],
    "wedge_prime": [
        (f"wedge_prime_{name}", ["left", "right", "plot"])
        for name in ("explicit", "supercomm", "leibniz")
    ],
    "injectivity_witness": [
        ("injectivity_witness", ["witness", "alpha", "plot", "expected"])
    ],
}


@pytest.mark.parametrize("suite", SUITE_RECORDS)
def test_identity_suites_keep_their_record_contract(suite):
    report = run_suite(suite, GenConfig(seed=7, trials=3), mutation="perturb")
    records = [(f["trial"], f["check"], list(f["inputs"])) for f in report.failures]
    expected = SUITE_RECORDS[suite]
    # three trials each; the witness suite's are its three fixed witnesses
    assert records == [(i, check, keys) for i in range(3) for check, keys in expected]


# each suite's mutations besides "perturb", which every suite accepts
SUITE_MUTATIONS = {
    "pair_equivalence": ("wedge_sign", "drop_k"),
    "kernel": ("perturb_element",),
}


def test_suite_reports_match_their_golden_digests(golden_check):
    # one digest per (suite, mutation) over seeds 0-2, so a change in any
    # rng draw, check or failure record shows up as a changed digest
    digests = {}
    for suite in ALL_SUITES:
        for mutation in (None, "perturb") + SUITE_MUTATIONS.get(suite, ()):
            docs = []
            for seed in range(3):
                doc = run_suite(suite, GenConfig(seed=seed, trials=5), mutation).to_doc()
                docs.append({**doc, "elapsed": 0.0})
            digest = hashlib.sha256(dumps(docs).encode()).hexdigest()
            digests[f"{suite}/{mutation}"] = digest
    assert len(digests) == 21
    golden_check("suite_digests", dumps(digests))
