"""The CLI: every verb against the library it fronts, plus exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pathforms
from golden_cases import dense_verb_texts
from pathforms.cli import VERBS, build_parser, main
from pathforms.forms import Chart, OrdinaryForm, dx
from pathforms.generalized import pair_encode
from pathforms.pathspace import (
    Plot,
    chen_integral,
    ev_pullback,
    eval_pathform,
    map_I,
    wedge_prime,
)
from pathforms.polyring import Poly
from pathforms.serialize import (
    MAX_CHART_DIM,
    dumps,
    expr_to_doc,
    form_from_doc,
    form_to_doc,
    gen_to_doc,
    loads,
    plot_to_doc,
)
from pathforms.verify import GenConfig, SuiteReport

X2 = Chart(("x1", "x2"))


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def square_plot():
    cyl = ("t", "u1", "u2")
    t = Poly.var(cyl, "t")
    return Plot(
        X2,
        Chart(("u1", "u2")),
        (t * Poly.var(cyl, "u1"), t * Poly.var(cyl, "u2")),
    )


def test_d_verb(tmp_path, capsys):
    form = dx(X2, 1).scale(X2.var(0))
    path = write_doc(tmp_path, "form.json", form_to_doc(form))
    status, out, err = run(capsys, "d", path)
    assert status == 0
    assert err == ""
    assert out == dumps(form_to_doc(form.d()))
    assert form_from_doc(loads(out)) == form.d()


def test_wedge_verb(tmp_path, capsys):
    left = dx(X2, 0).scale(X2.var(1))
    right = dx(X2, 1)
    lpath = write_doc(tmp_path, "l.json", form_to_doc(left))
    rpath = write_doc(tmp_path, "r.json", form_to_doc(right))
    status, out, _ = run(capsys, "wedge", lpath, rpath)
    assert status == 0
    assert loads(out) == form_to_doc(left.wedge(right))


def test_gwedge_and_gd_verbs(tmp_path, capsys):
    a = pair_encode(dx(X2, 0), OrdinaryForm.zero(X2), 2)
    b = pair_encode(dx(X2, 1), dx(X2, 0).wedge(dx(X2, 1)), 2)
    apath = write_doc(tmp_path, "a.json", gen_to_doc(a))
    bpath = write_doc(tmp_path, "b.json", gen_to_doc(b))
    status, out, _ = run(capsys, "gwedge", apath, bpath)
    assert status == 0
    assert loads(out) == gen_to_doc(a.wedge(b))
    status, out, _ = run(capsys, "gd", bpath)
    assert status == 0
    assert loads(out) == gen_to_doc(b.d())


def test_gd_matches_pair_formula(tmp_path, capsys):
    # d(x1 + x2 dx1 z) with k=2: ((1 - 2 x2) dx1, -dx1^dx2)
    x1 = OrdinaryForm.from_poly(X2, X2.var(0))
    alpha = pair_encode(x1, dx(X2, 0).scale(X2.var(1)), 2)
    path = write_doc(tmp_path, "alpha.json", gen_to_doc(alpha))
    status, out, _ = run(capsys, "gd", path)
    assert status == 0
    expected = pair_encode(
        dx(X2, 0).scale(X2.const(1) - X2.var(1) * 2),
        -dx(X2, 0).wedge(dx(X2, 1)),
        2,
    )
    assert loads(out) == gen_to_doc(expected)


def test_chen_and_ev_verbs(tmp_path, capsys):
    form = dx(X2, 1).scale(X2.var(0))
    plot = square_plot()
    fpath = write_doc(tmp_path, "form.json", form_to_doc(form))
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(plot))
    status, out, _ = run(capsys, "chen", fpath, ppath)
    assert status == 0
    assert loads(out) == form_to_doc(chen_integral(form, plot))
    for endpoint in (0, 1):
        status, out, _ = run(
            capsys, "ev", fpath, ppath, "--endpoint", str(endpoint)
        )
        assert status == 0
        assert loads(out) == form_to_doc(ev_pullback(endpoint, form, plot))


def test_imap_and_eval_verbs(tmp_path, capsys):
    alpha = pair_encode(dx(X2, 0), dx(X2, 0).wedge(dx(X2, 1)), 3)
    apath = write_doc(tmp_path, "alpha.json", gen_to_doc(alpha))
    status, out, _ = run(capsys, "imap", apath)
    assert status == 0
    assert loads(out) == expr_to_doc(map_I(alpha))

    plot = square_plot()
    epath = write_doc(tmp_path, "expr.json", loads(out))
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(plot))
    status, out, _ = run(capsys, "eval", epath, ppath)
    assert status == 0
    assert loads(out) == form_to_doc(eval_pathform(map_I(alpha), plot))


def test_eval_retargets_plot_to_expression_chart(tmp_path, capsys):
    chart = Chart(("a", "b"))
    expr = expr_to_doc(map_I(pair_encode(dx(chart, 0), OrdinaryForm.zero(chart), 1)))
    plot = square_plot()  # names x1, x2; dims match, names do not
    epath = write_doc(tmp_path, "expr.json", expr)
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(plot))
    status, out, _ = run(capsys, "eval", epath, ppath)
    assert status == 0
    value = form_from_doc(loads(out))
    assert value.chart == Chart(("u1", "u2"))


def test_eval_zero_expression(tmp_path, capsys):
    epath = write_doc(tmp_path, "expr.json", {"node": "Sum", "children": []})
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
    status, out, _ = run(capsys, "eval", epath, ppath)
    assert status == 0
    assert form_from_doc(loads(out)).is_zero


def test_eval_rejects_mixed_charts(tmp_path, capsys):
    mixed = {
        "node": "Wedge",
        "left": {
            "node": "EvPull",
            "endpoint": 1,
            "form": form_to_doc(dx(Chart(("a",)), 0)),
        },
        "right": {
            "node": "EvPull",
            "endpoint": 1,
            "form": form_to_doc(dx(Chart(("b",)), 0)),
        },
    }
    epath = write_doc(tmp_path, "expr.json", mixed)
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
    status, _, err = run(capsys, "eval", epath, ppath)
    assert status == 3
    assert "error:" in err


def test_wedge_prime_verb(tmp_path, capsys):
    a = pair_encode(dx(X2, 0), OrdinaryForm.zero(X2), 1)
    b = pair_encode(dx(X2, 1), dx(X2, 0).wedge(dx(X2, 1)), 1)
    apath = write_doc(tmp_path, "a.json", gen_to_doc(a))
    bpath = write_doc(tmp_path, "b.json", gen_to_doc(b))
    status, out, _ = run(capsys, "wedge-prime", apath, bpath)
    assert status == 0
    assert loads(out) == expr_to_doc(wedge_prime(a, b))


def test_out_flag_writes_file(tmp_path, capsys):
    form = dx(X2, 0)
    fpath = write_doc(tmp_path, "form.json", form_to_doc(form))
    outpath = tmp_path / "result.json"
    status, out, _ = run(capsys, "d", fpath, "--out", str(outpath))
    assert status == 0
    assert out == ""
    assert outpath.read_text() == dumps(form_to_doc(form.d()))


@pytest.mark.parametrize(
    "prefill",
    [lambda text: "#" * (2 * len(text)), lambda text: "#" * (len(text) // 2)],
    ids=["longer", "shorter"],
)
def test_out_over_an_existing_file_holds_exactly_the_result(prefill):
    # the file is rewritten in place and cut to length, so no junk is left
    # past the end of a shorter result
    for name, (text, expected) in dense_verb_texts(prefill).items():
        assert text == expected, name


def d_of_dx(tmp_path):
    """The argv of `d` on dx1, and the text it writes."""
    form = dx(X2, 0)
    return ["d", write_doc(tmp_path, "form.json", form_to_doc(form))], dumps(form_to_doc(form.d()))


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    argv, expected = d_of_dx(tmp_path)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("#" * 4 * len(expected))
    link.symlink_to(target)
    assert run(capsys, *argv, "--out", str(link)) == (0, "", "")
    assert link.is_symlink()
    assert target.read_text() == expected


def test_out_to_dev_null_exits_0(tmp_path, capsys):
    # a character device cannot be cut to length, and need not be
    argv, _ = d_of_dx(tmp_path)
    assert run(capsys, *argv, "--out", os.devnull) == (0, "", "")


def test_out_keeps_the_permission_bits_of_an_existing_file(tmp_path, capsys):
    argv, expected = d_of_dx(tmp_path)
    outpath = tmp_path / "result.json"
    outpath.write_text("#")
    outpath.chmod(0o604)
    assert run(capsys, *argv, "--out", str(outpath)) == (0, "", "")
    assert outpath.read_text() == expected
    assert outpath.stat().st_mode & 0o7777 == 0o604


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_out_creates_a_new_file_with_mode_0o666_under_the_umask(tmp_path, capsys, umask):
    argv, expected = d_of_dx(tmp_path)
    outpath = tmp_path / "result.json"
    old = os.umask(umask)
    try:
        status = run(capsys, *argv, "--out", str(outpath))
    finally:
        os.umask(old)
    assert status == (0, "", "")
    assert outpath.read_text() == expected
    assert outpath.stat().st_mode & 0o7777 == 0o666 & ~umask


def test_out_is_written_in_place_without_o_trunc(tmp_path, capsys, monkeypatch):
    # truncating a recently written file on open costs ext4 a flush, about
    # 0.1-0.3 ms a verb; a timing test would flake, so the flags are pinned
    argv, expected = d_of_dx(tmp_path)
    outpath = tmp_path / "result.json"
    outpath.write_text("#" * 4 * len(expected))
    flags = []
    real_open = os.open

    def recording(path, flag, *args, **kwargs):
        if path == str(outpath):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    assert run(capsys, *argv, "--out", str(outpath)) == (0, "", "")
    assert flags == [os.O_WRONLY | os.O_CREAT]  # no O_TRUNC
    assert outpath.read_text() == expected


def test_verify_verb_single_suite(tmp_path, capsys):
    status, out, _ = run(
        capsys, "verify", "--suite", "d_squared", "--seed", "5", "--trials", "4"
    )
    assert status == 0
    doc = loads(out)
    assert doc["passed"] is True
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["suite"] == "d_squared"
    assert doc["reports"][0]["trials"] == 4


def test_verify_verb_all_suites(capsys):
    status, out, _ = run(capsys, "verify", "--trials", "3", "--seed", "2")
    assert status == 0
    doc = loads(out)
    assert doc["passed"] is True
    assert [r["suite"] for r in doc["reports"]] == [
        "d_squared",
        "leibniz",
        "supercomm",
        "pair_equivalence",
        "chain_homotopy",
        "dI_commute",
        "kernel",
        "wedge_prime",
        "injectivity_witness",
    ]


def test_verify_reports_are_deterministic(capsys):
    def normalized():
        status, out, _ = run(capsys, "verify", "--trials", "3", "--seed", "2")
        assert status == 0
        doc = loads(out)
        for report in doc["reports"]:
            report["elapsed"] = 0.0
        return doc

    assert normalized() == normalized()


OUT_OF_MEMORY = "error: out of memory: the work asked for does not fit\n"


@pytest.mark.parametrize("verb", ["chen", "verify"])
def test_out_of_memory_exits_3_without_a_traceback(verb, tmp_path, capsys, monkeypatch):
    # a run too large for the process is refused like operands outside an
    # operation's domain, not read as a failed suite
    import pathforms.cli as cli

    def exhausted(*args):
        raise MemoryError

    if verb == "chen":
        monkeypatch.setattr(cli, "chen_integral", exhausted)
        form = write_doc(tmp_path, "w.json", form_to_doc(dx(X2, 0)))
        plot = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
        argv = ("chen", form, plot)
    else:
        monkeypatch.setattr(cli, "run_all", exhausted)
        argv = ("verify", "--trials", "1")
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (3, "", OUT_OF_MEMORY)


def test_every_document_verb_writes_the_bytes_of_json_dumps():
    # byte for byte, not only after re-loading, so the layout of each
    # polynomial's term list is pinned too
    texts = dense_verb_texts()
    assert set(texts) == set(VERBS) | {"ev0", "ev1"}
    for name, (text, expected) in texts.items():
        assert text == expected, name


def test_verify_failure_exits_1(capsys, monkeypatch):
    import pathforms.cli as cli

    def failing(cfg):
        return [SuiteReport("d_squared", 1, [{"trial": 0, "check": "x", "inputs": {}}], 0.0)]

    monkeypatch.setattr(cli, "run_all", failing)
    status, out, _ = run(capsys, "verify", "--trials", "1")
    assert status == 1
    doc = loads(out)
    assert doc["passed"] is False
    assert doc["reports"][0]["failures"]


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--chart-dim", "0", "chart_dim must be positive"),
        ("--plot-dim", "0", "plot_dim must be positive"),
        ("--poly-deg", "0", "poly_deg must be positive"),
        ("--koszul-n", "0", "koszul_n must be positive"),
        ("--trials", "-1", "trials must be nonnegative"),
    ],
)
def test_verify_flag_out_of_range_exits_2(capsys, flag, value, message):
    # a usage error, like `--trials x`; exit 3 means operands do not fit.
    # the last of a repeated flag wins, so `--trials -1` overrides `1`
    status, out, err = run(capsys, "verify", "--trials", "1", flag, value)
    assert (status, out, err) == (2, "", f"error: {message}\n")


def test_verify_dimension_above_the_plot_document_limit_exits_2(capsys):
    # its failure records would hold plots that plot_from_doc refuses
    status, out, err = run(capsys, "verify", "--plot-dim", "17", "--trials", "1")
    assert (status, out) == (2, "")
    assert err == "error: plot_dim is above the limit of 16\n"


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--poly-deg", "1000000", "poly_deg is above the limit of 64"),
        ("--koszul-n", "40", "koszul_n is above the limit of 10"),
    ],
)
def test_verify_work_size_above_its_cap_exits_2(capsys, flag, value, message):
    # with --trials 1 these ran for minutes; --trials 0 keeps a missing cap
    # from hanging the test
    status, out, err = run(capsys, "verify", "--trials", "0", flag, value)
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("where", ["missing/result.json", "."])
@pytest.mark.parametrize("verb", ["d", "verify"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, where, verb):
    # a missing directory or a directory itself: for verify, exit 1 would
    # read as a failed suite
    fpath = write_doc(tmp_path, "form.json", form_to_doc(dx(X2, 0)))
    argv = {"d": ["d", fpath], "verify": ["verify", "--suite", "kernel", "--trials", "1"]}
    out_path = str(tmp_path / where)
    status, out, err = run(capsys, *argv[verb], "--out", out_path)
    assert (status, out) == (2, "")
    with pytest.raises(OSError) as raised:
        open(out_path, "w")
    assert err == f"error: cannot write {out_path}: {raised.value}\n"


def test_verbs_look_operations_up_at_call_time(tmp_path, capsys, monkeypatch):
    # a verb must call the name cli holds when it runs, as the benchmark's
    # tracer replaces those names after import
    import pathforms.cli as cli

    names = ("chen_integral", "ev_pullback", "map_I", "wedge_prime", "eval_pathform")
    calls = {}
    for name in names:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    form = write_doc(tmp_path, "w.json", form_to_doc(dx(X2, 0).wedge(dx(X2, 1))))
    plot = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
    alpha = pair_encode(dx(X2, 0), dx(X2, 0).wedge(dx(X2, 1)), 2)
    gen = write_doc(tmp_path, "alpha.json", gen_to_doc(alpha))
    expr = write_doc(tmp_path, "expr.json", expr_to_doc(map_I(alpha)))
    for argv in (
        ("chen", form, plot),
        ("ev", form, plot, "--endpoint", "1"),
        ("imap", gen),
        ("wedge-prime", gen, gen),
        ("eval", expr, plot),
    ):
        status, _, err = run(capsys, *argv)
        assert (status, err) == (0, "")
    assert calls == dict.fromkeys(names, 1)


def test_missing_file_exits_2(capsys):
    status, _, err = run(capsys, "d", "/nonexistent/form.json")
    assert status == 2
    assert "error:" in err


@pytest.mark.parametrize("where", ["missing.json", "."])
def test_unreadable_input_path_exits_2(tmp_path, capsys, where):
    # a missing file or a directory: the message names the path and the
    # operating system's reason
    path = str(tmp_path / where)
    status, out, err = run(capsys, "d", path)
    assert (status, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: [Errno ")
    assert err.endswith(f": {path!r}\n")


def write_bytes(tmp_path, data: bytes) -> str:
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    return str(path)


def latin1_form(tmp_path):
    """A form document whose coordinate name é is written in Latin-1."""
    doc = form_to_doc(dx(Chart(("\u00e9", "x2")), 0))
    return write_bytes(tmp_path, json.dumps(doc, ensure_ascii=False).encode("latin-1"))


@pytest.mark.parametrize(
    "write,byte",
    [
        (lambda tmp_path: write_bytes(tmp_path, b"\xff\xfe{"), "0xff in position 0"),
        (latin1_form, "0xe9 in position "),
    ],
    ids=["utf16_bom", "latin1_name"],
)
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, write, byte):
    # JSON text is UTF-8; a decoding error is an unreadable document, not
    # operands that do not fit (exit 3)
    path = write(tmp_path)
    status, out, err = run(capsys, "d", path)
    assert (status, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte {byte}")


def test_utf8_coordinate_name_decodes(tmp_path, capsys):
    chart = Chart(("\u00e9", "x2"))
    form = dx(chart, 1).scale(chart.var(0))
    text = json.dumps(form_to_doc(form), ensure_ascii=False)
    status, out, err = run(capsys, "d", write_bytes(tmp_path, text.encode()))
    assert (status, out, err) == (0, dumps(form_to_doc(form.d())), "")


def test_crlf_document_errors_count_a_line_break_as_one_char(tmp_path, capsys):
    # documents are read with universal newlines, so json's positions in a
    # CRLF document are those of its LF twin
    path = write_bytes(tmp_path, b'{\r\n  "chart": ,\r\n}')
    status, out, err = run(capsys, "d", path)
    assert (status, out) == (2, "")
    assert err == "error: invalid JSON: Expecting value: line 2 column 12 (char 13)\n"


def test_cli_import_leaves_out_dataclasses_inspect_and_pathlib():
    # each verb is a fresh process, which pays for every module the CLI
    # imports; these three cost about 20 ms and the package needs none
    src = Path(pathforms.__file__).resolve().parents[1]
    probe = "import sys, pathforms.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "pathforms.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "pathlib"}


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    status, _, err = run(capsys, "d", str(path))
    assert status == 2
    assert "error:" in err


def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads refuses the 5001-digit literal with a plain ValueError, even
    # in a field no decoder reads
    text = json.dumps(form_to_doc(dx(X2, 0)))[:-1] + ', "junk": 1' + "0" * 5000 + "}"
    path = tmp_path / "form.json"
    path.write_text(text)
    status, out, err = run(capsys, "d", str(path))
    assert (status, out) == (2, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize(
    "field, value",
    [("m", 10_000_000), ("m", MAX_CHART_DIM + 1), ("target_dim", MAX_CHART_DIM + 1)],
)
def test_plot_dimension_past_the_limit_exits_2_at_once(tmp_path, capsys, field, value):
    # read as declared, m = 10**7 builds a chart of ten million names and an
    # error message naming each of them
    plot = {"m": 1, "target_dim": 1, "components": [[{"coeff": "1/1", "exps": [1, 0]}]]}
    plot[field] = value
    fpath = write_doc(tmp_path, "form.json", form_to_doc(dx(Chart(("x1",)), 0)))
    ppath = write_doc(tmp_path, "plot.json", plot)
    start = time.perf_counter()
    status, out, err = run(capsys, "chen", fpath, ppath)
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (2, "")
    assert err == (
        f"error: dimension {field} is {value}, above the limit of {MAX_CHART_DIM}\n"
    )


def test_malformed_document_exits_2(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        "form.json",
        {"chart": ["x1"], "components": [{"indices": [0], "poly": [{"coeff": "1/1", "exps": [0, 0]}]}]},
    )
    status, _, err = run(capsys, "d", path)
    assert status == 2
    assert "error:" in err


def test_document_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    status, out, err = run(capsys, "d", str(path))
    assert (status, out, err) == (2, "", "error: invalid JSON: nested too deeply\n")


def test_exponent_past_the_limit_exits_2(tmp_path, capsys):
    # 2**63 is one past polyring.MAX_EXPONENT
    term = {"coeff": "1/1", "exps": [2**63, 0]}
    form = {"chart": ["x1", "x2"], "components": [{"indices": [0], "poly": [term]}]}
    fpath = write_doc(tmp_path, "form.json", form)
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
    status, out, err = run(capsys, "chen", fpath, ppath)
    assert (status, out) == (2, "")
    assert err.startswith("error: exponent 9223372036854775808 outside")
    assert "Traceback" not in err


def test_chen_past_the_exponent_limit_exits_3(tmp_path, capsys):
    # x1 = t^(2^62 + 1) u1 reads in, but x1 dx1 pulls back to a dt part
    # with t^(2^63 + 1), past MAX_EXPONENT, though the t-integral of that
    # product would take the t-exponent away again
    x1 = Chart(("x1",))
    plot = Plot(x1, Chart(("u1",)), (Poly(("t", "u1"), {(2**62 + 1, 1): 1}),))
    form = dx(x1, 0).scale(x1.var(0))
    fpath = write_doc(tmp_path, "form.json", form_to_doc(form))
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(plot))
    status, out, err = run(capsys, "chen", fpath, ppath)
    assert (status, out) == (3, "")
    assert err == f"error: a product exponent exceeds MAX_EXPONENT = {2**63 - 1}\n"


@pytest.mark.parametrize("coeff", ["1e10000000", "1e1000000", "0.5"])
def test_coefficient_outside_the_rational_grammar_exits_2_at_once(
    tmp_path, capsys, coeff
):
    # Fraction() would read "1e10000000" for seconds, and "1e1000000" as a
    # number too long to write back out in d(c x2 dx1)
    term = {"coeff": coeff, "exps": [0, 1]}
    form = {"chart": ["x1", "x2"], "components": [{"indices": [0], "poly": [term]}]}
    fpath = write_doc(tmp_path, "form.json", form)
    start = time.perf_counter()
    status, out, err = run(capsys, "d", fpath)
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (2, "")
    assert err.startswith(f"error: bad rational {coeff!r}")
    assert "Traceback" not in err


def test_result_past_the_digit_limit_exits_3(tmp_path, capsys):
    # each 4000-digit coefficient reads back in, but their 8000-digit
    # product is past int()'s 4300-digit limit for writing text
    term = {"coeff": "9" * 4000, "exps": [0, 0]}
    paths = []
    for i, name in enumerate(("left", "right")):
        form = {"chart": ["x1", "x2"], "components": [{"indices": [i], "poly": [term]}]}
        paths.append(write_doc(tmp_path, f"{name}.json", form))
    status, out, err = run(capsys, "wedge", *paths)
    assert (status, out) == (3, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: a rational in the result has more than {limit} digits, "
        "the limit on writing an integer as text\n"
    )


def test_chart_mismatch_exits_3(tmp_path, capsys):
    left = write_doc(tmp_path, "l.json", form_to_doc(dx(Chart(("x1",)), 0)))
    right = write_doc(tmp_path, "r.json", form_to_doc(dx(X2, 0)))
    status, _, err = run(capsys, "wedge", left, right)
    assert status == 3
    assert "error:" in err


def test_plot_dimension_mismatch_exits_3(tmp_path, capsys):
    form = dx(Chart(("x1",)), 0)
    fpath = write_doc(tmp_path, "form.json", form_to_doc(form))
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
    status, _, err = run(capsys, "chen", fpath, ppath)
    assert status == 3
    assert "error:" in err


def test_imap_requires_n1_exits_3(tmp_path, capsys):
    doc = gen_to_doc(pair_encode(dx(X2, 0), OrdinaryForm.zero(X2), 1))
    doc["koszul"] = {"n": 2, "k": ["1/1", "1/1"]}
    doc["components"] = [
        {"zetas": [], "form": form_to_doc(dx(X2, 0))},
    ]
    path = write_doc(tmp_path, "gen.json", doc)
    status, _, err = run(capsys, "imap", path)
    assert status == 3
    assert "error:" in err


def test_wedge_prime_domain_violations_exit_3(tmp_path, capsys):
    degree0 = pair_encode(
        OrdinaryForm.from_poly(X2, X2.var(0)), dx(X2, 0), 1
    )
    good = pair_encode(dx(X2, 0), OrdinaryForm.zero(X2), 1)
    k0 = pair_encode(dx(X2, 0), OrdinaryForm.zero(X2), 0)
    lows = write_doc(tmp_path, "low.json", gen_to_doc(degree0))
    goods = write_doc(tmp_path, "good.json", gen_to_doc(good))
    k0s = write_doc(tmp_path, "k0.json", gen_to_doc(k0))
    status, _, err = run(capsys, "wedge-prime", lows, goods)
    assert status == 3
    status, _, err = run(capsys, "wedge-prime", k0s, k0s)
    assert status == 3


def eval_in_subprocess(tmp_path, expr_text: str) -> subprocess.CompletedProcess:
    """`pathforms eval` on an expression document's text and the square plot,
    in a fresh interpreter, so recursion limits are those of a real run."""
    epath = tmp_path / "deep.json"
    epath.write_text(expr_text)
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
    src = Path(pathforms.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "pathforms.cli", "eval", str(epath), ppath],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_deeply_nested_document_exits_2(tmp_path):
    expr = '{"node": "Sum", "children": []}'
    for _ in range(5000):
        expr = '{"node": "Diff", "child": ' + expr + "}"
    proc = eval_in_subprocess(tmp_path, expr)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("node", ["Diff", "Sum", "Scale", "Wedge"])
def test_deep_expressions_that_parse_evaluate(tmp_path, node):
    # 200 levels parse for every node kind; walking the expression's forms
    # for its chart must not give out before parsing does
    leaf = json.dumps({"node": "Chen", "form": form_to_doc(dx(X2, 0))})
    wrap = {
        "Diff": '{"node": "Diff", "child": %s}',
        "Sum": '{"node": "Sum", "children": [%s]}',
        "Scale": '{"node": "Scale", "coeff": "2/1", "child": %s}',
        "Wedge": '{"node": "Wedge", "left": ' + leaf + ', "right": %s}',
    }[node]
    expr = leaf
    for _ in range(200):
        expr = wrap % expr
    proc = eval_in_subprocess(tmp_path, expr)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert loads(proc.stdout)["chart"] == ["u1", "u2"]


def test_argparse_rejects_unknown_verbs_and_flags(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ev", "a.json", "b.json", "--endpoint", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_the_shared_parser_keeps_nothing_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    form = dx(X2, 0).scale(X2.var(1))
    fpath = write_doc(tmp_path, "form.json", form_to_doc(form))
    ppath = write_doc(tmp_path, "plot.json", plot_to_doc(square_plot()))
    outpath = tmp_path / "result.json"
    assert run(capsys, "d", fpath, "--out", str(outpath)) == (0, "", "")
    # a later call without --out writes to stdout
    assert run(capsys, "d", fpath) == (0, dumps(form_to_doc(form.d())), "")
    assert run(capsys, "ev", fpath, ppath, "--endpoint", "1")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["ev", fpath, ppath])
    assert exc.value.code == 2
    assert "--endpoint" in capsys.readouterr().err
    argv = ("verify", "--suite", "kernel", "--trials", "1", "--seed", "5")
    assert run(capsys, *argv)[0] == 0
    args = build_parser().parse_args(["verify"])
    assert args.suite == "all"
    assert [getattr(args, name) for name, _, _ in GenConfig._fields] == [
        default for _, _, default in GenConfig._fields
    ]
    helps = []
    for argv in (["--help"], ["verify", "--help"], ["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[:2] == helps[2:]
    assert helps[0] != helps[1]


def test_output_documents_are_canonical_bytes(tmp_path, capsys):
    form = dx(X2, 0).scale(X2.var(1) * Fraction(1, 3))
    path = write_doc(tmp_path, "form.json", form_to_doc(form))
    status, out, _ = run(capsys, "d", path)
    assert status == 0
    assert out.endswith("\n")
    assert out == json.dumps(loads(out), indent=2, sort_keys=True) + "\n"
