import gc
import sys
from pathlib import Path

import pytest
from hypothesis import settings

GOLDEN_DIR = Path(__file__).parent / "golden"

# No per-example deadline: the property tests check exact results, and on a
# shared or slow host an example's wall time says nothing about them.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden files from the current implementation",
    )


@pytest.fixture
def golden_check(request):
    regen = request.config.getoption("--regen-golden")

    def check(name: str, text: str) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
            return
        if not path.exists():
            pytest.fail(f"missing golden file {path}; run with --regen-golden")
        if text != path.read_text():
            pytest.fail(f"{name!r} no longer matches its golden file")

    return check


def python_calls(fn, *args) -> int:
    """The Python-level calls fn(*args) makes, itself included.  The
    collector is paused meanwhile: its callbacks (hypothesis installs one)
    would count calls that depend on when a collection happens to run."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls
