"""The slotted record base and the thirteen records built on it.

Each record keeps what its dataclass gave it: equality by exact type and
field values, a hash that agrees with it, the dataclass repr (checked
byte for byte against the strings the dataclasses wrote), immutability,
and copy and pickle round trips.  SuiteReport alone stays mutable.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from pathforms.forms import Chart, OrdinaryForm, PolyMap, dx
from pathforms.koszul import KoszulParams
from pathforms.pathspace import Chen, Diff, EvPull, Plot, Scale, Sum, Wedge
from pathforms.polyring import Poly
from pathforms.record import MISSING, Record
from pathforms.verify import GenConfig, SuiteReport, injectivity_cases

X = Chart(("x1", "x2"))
U = Chart(("u1",))
CYL = ("t", "u1")
T, U1 = Poly.var(CYL, "t"), Poly.var(CYL, "u1")
W = dx(X, 0)


def samples() -> dict:
    """One value of every record type, built afresh on each call."""
    return {
        "Chart": Chart(("x1", "x2")),
        "PolyMap": PolyMap(U, X, (U.var(0), U.const(3))),
        "Plot": Plot(X, U, (T * U1, T + Fraction(1, 2))),
        "KoszulParams": KoszulParams((Fraction(1, 2), 3)),
        "EvPull": EvPull(1, W),
        "Chen": Chen(dx(X, 0, 1)),
        "Wedge": Wedge(Chen(W), EvPull(0, W)),
        "Diff": Diff(Sum(())),
        "Sum": Sum((Chen(W), Scale(2, Chen(W)))),
        "Scale": Scale(Fraction(-1, 3), Diff(Chen(W))),
        "GenConfig": GenConfig(seed=5, trials=2),
        "SuiteReport": SuiteReport("kernel", 2, [{"trial": 0, "inputs": {"a": [1]}}], 0.5),
        "Witness": injectivity_cases()[1],
    }


FROZEN = [name for name in samples() if name != "SuiteReport"]

# the repr of each sample as the dataclasses wrote it
PLOT_REPR = (
    "Plot(source=Chart(coordinates=('t', 'u1')), target=Chart(coordinates=('x1', 'x2')), "
    "components=(Poly(('t', 'u1'), {(1, 1): Fraction(1, 1)}), Poly(('t', 'u1'), "
    "{(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 1)})), domain=Chart(coordinates=('u1',)))"
)
REPRS = {
    "Chart": "Chart(coordinates=('x1', 'x2'))",
    "PolyMap": "PolyMap(source=Chart(coordinates=('u1',)), "
    "target=Chart(coordinates=('x1', 'x2')), components=(Poly(('u1',), "
    "{(1,): Fraction(1, 1)}), Poly(('u1',), {(0,): Fraction(3, 1)})))",
    "Plot": PLOT_REPR,
    "KoszulParams": "KoszulParams(constants=(Fraction(1, 2), Fraction(3, 1)))",
    "EvPull": "EvPull(endpoint=1, form=OrdinaryForm((1)*dx[0]))",
    "Chen": "Chen(form=OrdinaryForm((1)*dx[0, 1]))",
    "Wedge": "Wedge(left=Chen(form=OrdinaryForm((1)*dx[0])), "
    "right=EvPull(endpoint=0, form=OrdinaryForm((1)*dx[0])))",
    "Diff": "Diff(child=Sum(children=()))",
    "Sum": "Sum(children=(Chen(form=OrdinaryForm((1)*dx[0])), "
    "Scale(coeff=Fraction(2, 1), child=Chen(form=OrdinaryForm((1)*dx[0])))))",
    "Scale": "Scale(coeff=Fraction(-1, 3), child=Diff(child=Chen(form=OrdinaryForm((1)*dx[0]))))",
    "GenConfig": "GenConfig(seed=5, chart_dim=3, plot_dim=2, poly_deg=3, koszul_n=3, trials=2)",
    "SuiteReport": "SuiteReport(suite='kernel', trials=2, "
    "failures=[{'trial': 0, 'inputs': {'a': [1]}}], elapsed=0.5)",
    "Witness": "Witness(label='degree 1, integral part', "
    "alpha=GeneralizedForm(OrdinaryForm((1)*dx[0, 1])*z[0]), "
    "plot=Plot(source=Chart(coordinates=('t', 'u1')), "
    "target=Chart(coordinates=('x1', 'x2')), components=(Poly(('t', 'u1'), "
    "{(1, 0): Fraction(1, 1)}), Poly(('t', 'u1'), {(1, 1): Fraction(1, 1)})), "
    "domain=Chart(coordinates=('u1',))), expected=OrdinaryForm((1/2)*dx[0]))",
}


def test_every_record_is_a_slotted_record():
    for name, value in samples().items():
        assert isinstance(value, Record), name
        assert not hasattr(value, "__dict__"), name
    assert len(samples()) == 13


@pytest.mark.parametrize("name", list(REPRS))
def test_repr_is_the_dataclass_repr(name):
    assert repr(samples()[name]) == REPRS[name]


@pytest.mark.parametrize("name", FROZEN)
def test_equal_values_are_equal_and_hash_alike(name):
    a, b = samples()[name], samples()[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equality_holds_by_exact_type():
    plot = samples()["Plot"]
    as_map = PolyMap(plot.source, plot.target, plot.components)
    assert plot != as_map and as_map != plot
    assert PolyMap._trusted(plot.source, plot.target, plot.components) == as_map

    class Echo(Chen):
        pass

    assert Echo(W) != Chen(W) and Chen(W) != Echo(W)
    assert Echo(W) == Echo(W)
    # every pair of distinct node types over the same children differs
    child = Chen(W)
    nodes = [EvPull(0, W), Chen(W), Wedge(child, child), Diff(child), Sum((child,))]
    nodes.append(Scale(1, child))
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert (a == b) == (i == j)
    assert Chart(("x1",)) != ("x1",) and KoszulParams((1,)) != Chart(())


def test_a_record_compares_its_fields_not_their_identity():
    assert Chart(("a", "b")) != Chart(("b", "a"))
    assert EvPull(0, W) != EvPull(1, W)
    assert Scale(Fraction(1, 2), Chen(W)) == Scale(Fraction(2, 4), Chen(W))
    assert GenConfig(seed=1) != GenConfig(seed=2)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    value = samples()[name]
    field = value._fields[0][0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_suite_report_is_mutable_and_unhashable():
    report = samples()["SuiteReport"]
    report.elapsed = 1.5
    report.failures.append({"trial": 1})
    assert report.elapsed == 1.5 and not report.passed
    del report.elapsed
    with pytest.raises(AttributeError):
        report.elapsed
    with pytest.raises(TypeError):
        hash(samples()["SuiteReport"])
    with pytest.raises(AttributeError):
        report.extra = 1


def test_suite_report_document_shares_nothing_with_the_report():
    report = samples()["SuiteReport"]
    doc = report.to_doc()
    assert doc == {
        "suite": "kernel",
        "trials": 2,
        "failures": [{"trial": 0, "inputs": {"a": [1]}}],
        "elapsed": 0.5,
        "passed": False,
    }
    assert list(doc) == ["suite", "trials", "failures", "elapsed", "passed"]
    doc["failures"][0]["inputs"]["a"].append(2)
    doc["failures"].append({})
    assert report.failures == [{"trial": 0, "inputs": {"a": [1]}}]
    assert SuiteReport("kernel", 0, [], 0.0).to_doc()["passed"] is True


@pytest.mark.parametrize("name", list(REPRS))
def test_copy_deepcopy_and_pickle_round_trip(name):
    value = samples()[name]
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)
    if name != "SuiteReport":
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)
    # a shallow copy shares the field values, a deep copy does not
    field = value._fields[-1][0]
    assert getattr(copy.copy(value), field) is getattr(value, field)
    if name == "SuiteReport":
        assert copy.deepcopy(value).failures is not value.failures


def test_field_tables():
    assert Chart._fields == (("coordinates", "tuple[str, ...]", MISSING),)
    assert [name for name, _, _ in Plot._fields] == [
        "source",
        "target",
        "components",
        "domain",
    ]
    assert Scale._fields == (
        ("coeff", "Fraction", MISSING),
        ("child", "PathFormExpr", MISSING),
    )
    assert Sum._fields == (("children", "tuple[PathFormExpr, ...]", MISSING),)
    assert [(name, default) for name, _, default in GenConfig._fields] == [
        ("seed", 0),
        ("chart_dim", 3),
        ("plot_dim", 2),
        ("poly_deg", 3),
        ("koszul_n", 3),
        ("trials", 100),
    ]
    assert {kind for _, kind, _ in GenConfig._fields} == {"int"}


def test_base_constructor_checks_the_value_count():
    with pytest.raises(TypeError):
        SuiteReport("kernel", 2, [])
    with pytest.raises(TypeError):
        Chen()
    with pytest.raises(TypeError):
        Wedge(Chen(W), Chen(W), Chen(W))
    with pytest.raises(TypeError):
        GenConfig(1, 2, 3, 4, 5, 6, 7)


def test_a_record_with_no_fields_equals_its_own_kind():
    class Empty(Record):
        __slots__ = ()

    assert Empty._fields == ()
    assert Empty() == Empty() and hash(Empty()) == hash(Empty())
    assert repr(Empty()).endswith("Empty()")


def test_the_algebras_pickle_too():
    form = dx(X, 0).scale(X.var(1))
    witness = samples()["Witness"]
    poly = X.var(1) * Fraction(1, 3)
    assert repr(form) and poly.terms  # the cached term views are not pickled
    for value in (poly, form, witness.alpha, witness.plot, KoszulParams((1,))):
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and hash(twin) == hash(value)
        assert copy.deepcopy(value) == value
    assert isinstance(pickle.loads(pickle.dumps(form)), OrdinaryForm)
