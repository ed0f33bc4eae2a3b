"""Span tracing around calls into pathforms' layers, installed from outside.

The package has no tracing of its own, so the benchmark wraps the public
functions and methods of each module (the layers) and records one span
per call: name, start, end, parent span and op id.  Only calls made
inside an op span are recorded, so the benchmark's own output checks,
which call the same functions, stay out of the figures.  Spans live in flat
arrays in memory and are written out after the traced pass.  A span's
self time is its duration minus the time its child spans cover; calls
nest on one thread, so that is the sum of the children's durations.

Methods are patched on their class.  Module-level functions are patched
in every loaded pathforms module that holds a reference to them, which
covers names imported elsewhere (``chen_integral`` in ``verify`` and
``cli``) and recursive globals (``eval_pathform`` in ``pathspace``).
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

# (span name, module, class, method names sharing one function object)
METHODS = (
    ("polyring.init", "pathforms.polyring", "Poly", ("__init__",)),
    ("polyring.mul", "pathforms.polyring", "Poly", ("__mul__", "__rmul__")),
    ("polyring.add", "pathforms.polyring", "Poly", ("__add__", "__radd__")),
    ("polyring.compose", "pathforms.polyring", "Poly", ("compose",)),
    ("forms.wedge", "pathforms.forms", "OrdinaryForm", ("wedge",)),
    ("forms.d", "pathforms.forms", "OrdinaryForm", ("d",)),
    ("forms.pullback", "pathforms.forms", "PolyMap", ("pullback",)),
    ("koszul.mul", "pathforms.koszul", "KoszulElement", ("mul",)),
    ("koszul.d", "pathforms.koszul", "KoszulElement", ("d",)),
    ("generalized.wedge", "pathforms.generalized", "GeneralizedForm", ("wedge",)),
    ("generalized.d", "pathforms.generalized", "GeneralizedForm", ("d",)),
)

_GENERATORS = (
    "rand_poly",
    "rand_form",
    "rand_form_mixed",
    "rand_koszul_params",
    "rand_koszul",
    "rand_koszul_mixed",
    "rand_genform",
    "rand_genform_mixed",
    "rand_plot",
    "gen_random",
)

# (span name, defining module, function names)
FUNCTIONS = (
    ("pathspace.chen_integral", "pathforms.pathspace", ("chen_integral",)),
    ("pathspace.ev_pullback", "pathforms.pathspace", ("ev_pullback",)),
    ("pathspace.eval_pathform", "pathforms.pathspace", ("eval_pathform",)),
    ("serialize.to_doc", "pathforms.serialize", "*_to_doc"),
    ("serialize.from_doc", "pathforms.serialize", "*_from_doc"),
    ("serialize.dumps", "pathforms.serialize", ("dumps",)),
    ("verify.generate", "pathforms.verify", _GENERATORS),
    ("verify.run_suite", "pathforms.verify", ("run_suite",)),
    ("cli.main", "pathforms.cli", ("main",)),
)

OP_SPAN = "op"

def _coeff_bits(poly) -> int:
    best = 0
    for c in poly.terms.values():
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.term_products = 0
        self.mul_out_terms = 0
        self.coeff_bits_max = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """A stand-in for fn that records one span per call made inside an
        op span; outside one (the benchmark's own checks) it just calls fn."""
        nid = self._name_id(name)
        span_name, parent_of, op_of = self.span_name, self.parent, self.op
        starts, ends, child, stack = self.start, self.end, self.child, self.stack
        clock = time.perf_counter
        tracer = self
        is_op = name == OP_SPAN

        def traced(*args, **kwargs):
            if not stack and not is_op:
                return fn(*args, **kwargs)
            idx = len(starts)
            parent = stack[-1] if stack else -1
            span_name.append(nid)
            parent_of.append(parent)
            op_of.append(tracer.op_id)
            child.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if parent >= 0:
                    child[parent] += t1 - t0
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_mul(self, poly_cls):
        def after(args, result):
            left, right = args
            width = len(right.terms) if isinstance(right, poly_cls) else 1
            self.term_products += len(left.terms) * width
            self.mul_out_terms += len(result.terms)
            self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))

        return after

    def _after_compose(self, args, result):
        self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))

    # -- installing the wrappers -------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "pathforms" or name.startswith("pathforms.")
        }
        after = {
            "polyring.mul": self._after_mul(modules["pathforms.polyring"].Poly),
            "polyring.compose": self._after_compose,
        }
        for span, modname, clsname, attrs in METHODS:
            cls = getattr(modules[modname], clsname)
            original = cls.__dict__[attrs[0]]
            wrapper = self.wrap(span, original, after.get(span))
            for attr in attrs:
                if cls.__dict__.get(attr) is not original:
                    raise RuntimeError(f"{clsname}.{attr} is not {attrs[0]}")
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapper)
        for span, modname, names in FUNCTIONS:
            home = modules[modname]
            if isinstance(names, str):
                suffix = names.lstrip("*")
                names = tuple(
                    n for n in vars(home) if n.endswith(suffix) and not n.startswith("_")
                )
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(span, original)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> Tracer:
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, summed self time, summed duration."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            total[nid] += dur
            self_s[nid] += dur - self.child[i]
        return (
            dict(zip(self.names, calls)),
            dict(zip(self.names, self_s)),
            dict(zip(self.names, total)),
        )

    def count_children(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose parent span is called `parent_name`."""
        nid = self._ids.get(name)
        pid = self._ids.get(parent_name)
        if nid is None or pid is None:
            return 0
        return sum(
            1
            for i, n in enumerate(self.span_name)
            if n == nid and self.parent[i] >= 0 and self.span_name[self.parent[i]] == pid
        )

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with path.open("w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, nid in enumerate(self.span_name):
                out.write(
                    f"{i}\t{self.names[nid]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )


def layer_metrics(tracer: Tracer, useful_docs: int) -> dict[str, float]:
    """The per-layer numbers of one traced pass: calls and self time of
    every span name, and the derived counts and ratios."""
    calls, self_s, total = tracer.totals()
    out: dict[str, float] = {}
    for name in tracer.names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    products = tracer.term_products
    out["polyring.mul.term_products"] = products
    out["polyring.mul.merge_ratio"] = tracer.mul_out_terms / products if products else 0.0
    out["polyring.coeff_bits_max"] = tracer.coeff_bits_max
    out["pathspace.eval_pathform.nodes"] = calls["pathspace.eval_pathform"]
    op_time = total.get(OP_SPAN, 0.0)
    out["forms.pullback.incl_share"] = total["forms.pullback"] / op_time if op_time else 0.0
    built = tracer.count_children("serialize.to_doc", "verify.run_suite")
    out["verify.input_docs_built"] = built
    # nothing built wastes nothing: lazy failure documents read as 1
    out["verify.input_docs_useful_ratio"] = useful_docs / built if built else 1.0
    return out
