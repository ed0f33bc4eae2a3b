"""Command-line front end over the JSON interchange format.

Every verb reads documents, computes one value, and writes one document
to stdout (or --out).  Exit status is 0 on success, 1 when a
verification suite reports failures, 2 when an input does not parse,
and 3 when parsed operands do not fit together (chart or parameter
mismatches, operands outside an operation's domain).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .forms import Chart
from .pathspace import (
    Chen,
    EvPull,
    PathFormExpr,
    chen_integral,
    ev_pullback,
    eval_pathform,
    map_I,
    wedge_prime,
)
from .polyring import MismatchError
from .serialize import (
    ParseError,
    dumps,
    expr_from_doc,
    expr_to_doc,
    form_from_doc,
    form_to_doc,
    gen_from_doc,
    gen_to_doc,
    loads,
    plot_from_doc,
)
from .verify import ALL_SUITES, GenConfig, run_all, run_suite

PARSE_ERROR = 2
MISMATCH_ERROR = 3


def _read_doc(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return loads(text)


def _embedded_chart(expr: PathFormExpr) -> Chart | None:
    """The single chart the expression's forms live on, if any."""
    charts: list[Chart] = []

    def walk(node: PathFormExpr) -> None:
        if isinstance(node, (EvPull, Chen)):
            charts.append(node.form.chart)
        for child in node.subexpressions():
            walk(child)

    walk(expr)
    if not charts:
        return None
    first = charts[0]
    for chart in charts[1:]:
        if chart != first:
            raise MismatchError(
                f"expression mixes forms on {first!r} and {chart!r}"
            )
    return first


def _cmd_d(args) -> tuple[dict, int]:
    form = form_from_doc(_read_doc(args.form))
    return form_to_doc(form.d()), 0


def _cmd_wedge(args) -> tuple[dict, int]:
    left = form_from_doc(_read_doc(args.left))
    right = form_from_doc(_read_doc(args.right))
    return form_to_doc(left.wedge(right)), 0


def _cmd_gwedge(args) -> tuple[dict, int]:
    left = gen_from_doc(_read_doc(args.left))
    right = gen_from_doc(_read_doc(args.right))
    return gen_to_doc(left.wedge(right)), 0


def _cmd_gd(args) -> tuple[dict, int]:
    value = gen_from_doc(_read_doc(args.form))
    return gen_to_doc(value.d()), 0


def _cmd_chen(args) -> tuple[dict, int]:
    form = form_from_doc(_read_doc(args.form))
    plot = plot_from_doc(_read_doc(args.plot), target=form.chart)
    return form_to_doc(chen_integral(form, plot)), 0


def _cmd_ev(args) -> tuple[dict, int]:
    form = form_from_doc(_read_doc(args.form))
    plot = plot_from_doc(_read_doc(args.plot), target=form.chart)
    return form_to_doc(ev_pullback(args.endpoint, form, plot)), 0


def _cmd_imap(args) -> tuple[dict, int]:
    value = gen_from_doc(_read_doc(args.form))
    return expr_to_doc(map_I(value)), 0


def _cmd_wedge_prime(args) -> tuple[dict, int]:
    left = gen_from_doc(_read_doc(args.left))
    right = gen_from_doc(_read_doc(args.right))
    return expr_to_doc(wedge_prime(left, right)), 0


def _cmd_eval(args) -> tuple[dict, int]:
    expr = expr_from_doc(_read_doc(args.expr))
    plot = plot_from_doc(_read_doc(args.plot), target=_embedded_chart(expr))
    return form_to_doc(eval_pathform(expr, plot)), 0


def _cmd_verify(args) -> tuple[dict, int]:
    cfg = GenConfig(
        seed=args.seed,
        chart_dim=args.chart_dim,
        plot_dim=args.plot_dim,
        poly_deg=args.poly_deg,
        koszul_n=args.koszul_n,
        trials=args.trials,
    )
    if args.suite == "all":
        reports = run_all(cfg)
    else:
        reports = [run_suite(args.suite, cfg)]
    passed = all(r.passed for r in reports)
    doc = {"passed": passed, "reports": [r.to_doc() for r in reports]}
    return doc, 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathforms",
        description="exact computations with generalized differential forms "
        "and their path-space images",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, handler, help_: str):
        cmd = sub.add_parser(name, help=help_)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--out", help="write the result document to this path")
        return cmd

    cmd = add("d", _cmd_d, "exterior differential of a form")
    cmd.add_argument("form", help="form document")

    cmd = add("wedge", _cmd_wedge, "wedge product of two forms")
    cmd.add_argument("left", help="form document")
    cmd.add_argument("right", help="form document")

    cmd = add("gwedge", _cmd_gwedge, "product of two generalized forms")
    cmd.add_argument("left", help="generalized form document")
    cmd.add_argument("right", help="generalized form document")

    cmd = add("gd", _cmd_gd, "differential of a generalized form")
    cmd.add_argument("form", help="generalized form document")

    cmd = add("chen", _cmd_chen, "first-order t-integral of a form over a plot")
    cmd.add_argument("form", help="form document")
    cmd.add_argument("plot", help="plot document")

    cmd = add("ev", _cmd_ev, "endpoint evaluation pullback of a form")
    cmd.add_argument("form", help="form document")
    cmd.add_argument("plot", help="plot document")
    cmd.add_argument("--endpoint", type=int, choices=(0, 1), required=True)

    cmd = add("imap", _cmd_imap, "path-space image of a generalized form")
    cmd.add_argument("form", help="generalized form document (n=1)")

    cmd = add(
        "wedge-prime",
        _cmd_wedge_prime,
        "transported product of two generalized forms (degree >= 1)",
    )
    cmd.add_argument("left", help="generalized form document")
    cmd.add_argument("right", help="generalized form document")

    cmd = add("eval", _cmd_eval, "evaluate a path-form expression on a plot")
    cmd.add_argument("expr", help="expression document")
    cmd.add_argument("plot", help="plot document")

    cmd = add("verify", _cmd_verify, "run property suites")
    cmd.add_argument("--suite", default="all", choices=("all",) + ALL_SUITES)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--trials", type=int, default=100)
    cmd.add_argument("--chart-dim", type=int, default=3)
    cmd.add_argument("--plot-dim", type=int, default=2)
    cmd.add_argument("--poly-deg", type=int, default=3)
    cmd.add_argument("--koszul-n", type=int, default=3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, status = args.handler(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return PARSE_ERROR
    except MismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return MISMATCH_ERROR
    except ValueError as e:
        # parsed fine, but the operands are outside the operation's domain
        print(f"error: {e}", file=sys.stderr)
        return MISMATCH_ERROR
    text = dumps(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
