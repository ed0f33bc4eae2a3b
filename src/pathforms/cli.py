"""Command-line front end over the JSON interchange format.

Every verb reads documents, computes one value, and writes one document
to stdout (or --out).  Exit status is 0 on success, 1 when a
verification suite reports failures, 2 when an input is not UTF-8 or
does not parse or the --out path cannot be written, and 3 when parsed
operands do not fit together (chart or parameter mismatches, operands
outside an operation's domain), when a rational in the result has more
digits than int() writes as text (4300 by default), which inputs inside
that limit can still produce, or when the work runs out of memory.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from .forms import Chart, OrdinaryForm
from .pathspace import (
    PathFormExpr,
    chen_integral,
    ev_pullback,
    eval_pathform,
    map_I,
    wedge_prime,
)
from .polyring import MismatchError
from .serialize import ParseError, dumps, from_doc, loads, to_text
from .verify import ALL_SUITES, GenConfig, run_all, run_suite

PARSE_ERROR = 2
MISMATCH_ERROR = 3


def _read_doc(path: str):
    try:
        with open(path, encoding="utf-8") as f:  # strictly, as JSON requires
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return loads(text)


def _write_out(path: str, text: str) -> None:
    """Write text over path in place, then cut a regular file to its length:
    on ext4 truncating a recently written file on open costs more than the
    write.  Like the truncating open, an interrupted write breaks the file."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode())
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # not /dev/null or a FIFO
            f.truncate()


def _embedded_chart(value: OrdinaryForm | PathFormExpr) -> Chart | None:
    """The single chart a form or an expression's forms live on, if any."""
    forms = (value,) if isinstance(value, OrdinaryForm) else value.forms()
    charts = list(dict.fromkeys(form.chart for form in forms))
    if len(charts) > 1:
        first, other = charts[:2]
        raise MismatchError(f"expression mixes forms on {first!r} and {other!r}")
    return charts[0] if charts else None


# Each document verb: its help text, its operation, and its operands as
# (argument, document type).  The operations look their functions up when
# called, so a module global or method replaced later is the one used.
VERBS = {
    "d": (
        "exterior differential of a form",
        lambda form: form.d(),
        (("form", "OrdinaryForm"),),
    ),
    "wedge": (
        "wedge product of two forms",
        lambda left, right: left.wedge(right),
        (("left", "OrdinaryForm"), ("right", "OrdinaryForm")),
    ),
    "gwedge": (
        "product of two generalized forms",
        lambda left, right: left.wedge(right),
        (("left", "GeneralizedForm"), ("right", "GeneralizedForm")),
    ),
    "gd": (
        "differential of a generalized form",
        lambda form: form.d(),
        (("form", "GeneralizedForm"),),
    ),
    "chen": (
        "first-order t-integral of a form over a plot",
        lambda form, plot: chen_integral(form, plot),
        (("form", "OrdinaryForm"), ("plot", "Plot")),
    ),
    "imap": (
        "path-space image of a generalized form (n=1)",
        lambda form: map_I(form),
        (("form", "GeneralizedForm"),),
    ),
    "wedge-prime": (
        "transported product of two generalized forms (degree >= 1)",
        lambda left, right: wedge_prime(left, right),
        (("left", "GeneralizedForm"), ("right", "GeneralizedForm")),
    ),
    "eval": (
        "evaluate a path-form expression on a plot",
        lambda expr, plot: eval_pathform(expr, plot),
        (("expr", "PathFormExpr"), ("plot", "Plot")),
    ),
}


def _operands(args, operands) -> list:
    """Decode the operands in order, a plot against the chart of the one before."""
    values: list = []
    for name, type_name in operands:
        doc = _read_doc(getattr(args, name))
        chart = _embedded_chart(values[-1]) if type_name == "Plot" else None
        values.append(from_doc(type_name, doc, chart))
    return values


def _cmd_document(args) -> tuple[str, int]:
    _, operation, operands = VERBS[args.verb]
    return to_text(operation(*_operands(args, operands))), 0


def _cmd_ev(args) -> tuple[str, int]:
    form, plot = _operands(args, (("form", "OrdinaryForm"), ("plot", "Plot")))
    return to_text(ev_pullback(args.endpoint, form, plot)), 0


def _cmd_verify(args) -> tuple[str, int]:
    try:
        cfg = GenConfig(**{name: getattr(args, name) for name, _, _ in GenConfig._fields})
    except ValueError as e:
        # a flag value out of range is a usage error, like a malformed one
        raise ParseError(str(e)) from e
    reports = run_all(cfg) if args.suite == "all" else [run_suite(args.suite, cfg)]
    passed = all(r.passed for r in reports)
    doc = {"passed": passed, "reports": [r.to_doc() for r in reports]}
    return dumps(doc), 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process: parse_args keeps no state between calls."""
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

    for verb, (help_, _, operands) in VERBS.items():
        cmd = add(verb, _cmd_document, help_)
        for name, type_name in operands:
            cmd.add_argument(name, help=f"{type_name} document")

    cmd = add("ev", _cmd_ev, "endpoint evaluation pullback of a form")
    cmd.add_argument("form", help="OrdinaryForm document")
    cmd.add_argument("plot", help="Plot document")
    cmd.add_argument("--endpoint", type=int, choices=(0, 1), required=True)

    cmd = add("verify", _cmd_verify, "run property suites")
    cmd.add_argument("--suite", default="all", choices=("all",) + ALL_SUITES)
    for name, _, default in GenConfig._fields:
        cmd.add_argument("--" + name.replace("_", "-"), type=int, default=default)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, status = args.handler(args)
    except ValueError as e:
        # a ParseError, or operands that parsed fine but do not fit together
        # (a MismatchError) or are outside the operation's domain
        print(f"error: {e}", file=sys.stderr)
        return PARSE_ERROR if isinstance(e, ParseError) else MISMATCH_ERROR
    except MemoryError:
        # a computation too large for the process, however well-formed
        print("error: out of memory: the work asked for does not fit", file=sys.stderr)
        return MISMATCH_ERROR
    if args.out:
        try:
            _write_out(args.out, text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return PARSE_ERROR
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
