"""The acceptance gate: every guarantee the package ships, one test
each, at the full advertised bounds (chart dim 3, plot dim 2, poly
degree 3, up to 3 Koszul generators, 100 trials, exact arithmetic).

Run with -v for one pass/fail line per guarantee.
"""

from pathlib import Path

from golden_cases import CASES

from pathforms.forms import Chart, OrdinaryForm, dx
from pathforms.generalized import pair_encode
from pathforms.pathspace import Plot, eval_pathform, map_I
from pathforms.polyring import Poly
from pathforms.serialize import (
    dumps,
    form_from_doc,
    form_to_doc,
    gen_from_doc,
    gen_to_doc,
    plot_from_doc,
    plot_to_doc,
)
from pathforms.verify import (
    GenConfig,
    Witness,
    gen_random,
    injectivity_cases,
    run_suite,
)

BOUNDS = GenConfig(
    seed=1, chart_dim=3, plot_dim=2, poly_deg=3, koszul_n=3, trials=100
)
GOLDEN_DIR = Path(__file__).parent / "golden"


def _run(name: str, mutation=None):
    report = run_suite(name, BOUNDS, mutation=mutation)
    if mutation is None:
        assert report.passed, (
            f"{name}: {len(report.failures)} failures in {report.trials} trials; "
            f"first: {report.failures[:1]}"
        )
    assert report.elapsed < 60
    return report


def test_d_squared_vanishes_in_all_three_algebras():
    _run("d_squared")


def test_pair_formulas_match_the_tensor_construction():
    _run("pair_equivalence")


def test_chain_homotopy_between_endpoint_pullbacks():
    _run("chain_homotopy")


def test_transfer_map_commutes_with_d():
    _run("dI_commute")


def kernel_negative_control() -> Witness:
    """f + 2 k^{-1} (df) z, twice the kernel coefficient: its image
    evaluates to minus the endpoint difference of f, here -u1.  A broken
    map_I cannot pass the kernel suite by sending everything to zero."""
    target = Chart(("x1",))
    domain = Chart(("u1",))
    cyl = ("t", "u1")
    f = OrdinaryForm.from_poly(target, target.var(0))
    return Witness(
        "perturbed kernel element",
        pair_encode(f, dx(target, 0).scale(2), 1),
        Plot(target, domain, (Poly.var(cyl, "t") * Poly.var(cyl, "u1"),)),  # x1 = t u1
        OrdinaryForm.from_poly(domain, -domain.var(0)),
    )


def test_kernel_elements_vanish_and_the_control_does_not():
    _run("kernel")
    control = kernel_negative_control()
    value = eval_pathform(map_I(control.alpha), control.plot)
    assert value == control.expected
    assert not value.is_zero
    mutated = _run("kernel", mutation="perturb_element")
    assert not mutated.passed


def test_injectivity_witnesses_evaluate_nonzero():
    witnesses = injectivity_cases()
    assert len(witnesses) >= 3
    for witness in witnesses:
        assert not witness.alpha.is_zero
        assert witness.alpha.is_homogeneous()
        assert witness.alpha.degree() >= 1
        value = eval_pathform(map_I(witness.alpha), witness.plot)
        assert value == witness.expected, witness.label
        assert not value.is_zero, witness.label
    _run("injectivity_witness")


def test_transported_product_consistency_commutativity_leibniz():
    _run("wedge_prime")


def test_superalgebra_associativity_sign_rule_and_leibniz():
    _run("supercomm")
    _run("leibniz")


def test_documented_examples_reproduce_byte_identical_outputs():
    problems = []
    for name, builder in sorted(CASES.items()):
        path = GOLDEN_DIR / f"{name}.json"
        if not path.exists():
            problems.append(f"{name}: golden file missing")
        elif dumps(builder()) != path.read_text():
            problems.append(f"{name}: output drifted from its golden file")
    assert not problems, "; ".join(problems)
    # documents round-trip: parse after serialize is the identity
    for i in range(5):
        form = gen_random("form", BOUNDS, index=i)
        assert form_from_doc(form_to_doc(form)) == form
        gen = gen_random("genform", BOUNDS, index=i)
        assert gen_from_doc(gen_to_doc(gen)) == gen
        plot = gen_random("plot", BOUNDS, index=i)
        parsed = plot_from_doc(plot_to_doc(plot), target=plot.target)
        assert parsed.components == plot.components
