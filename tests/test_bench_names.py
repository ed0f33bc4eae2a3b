"""The benchmark's tracer patches pathforms by name (bench/tracing.py:
METHODS, FUNCTIONS and the verify generators).  The benchmark's own tests
are not collected here, so this checks that every name it patches still
exists and that leaving the tracer puts every original back."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pathforms

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCH))
    return Tracer


def test_tracer_installs_and_restores_every_patched_name():
    modules = [pathforms] + [
        importlib.import_module(f"pathforms.{info.name}")
        for info in pkgutil.iter_modules(pathforms.__path__)
    ]
    assert "pathforms.cli" in {module.__name__ for module in modules}
    owners = modules + [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    before = [(owner, dict(vars(owner))) for owner in owners]

    def changed() -> list[str]:
        return [
            f"{owner.__name__}.{name}"
            for owner, attrs in before
            for name, value in attrs.items()
            if vars(owner).get(name) is not value
        ]

    with _load_tracer()():
        patched = changed()
    assert patched, "the tracer patched nothing"
    assert changed() == []
