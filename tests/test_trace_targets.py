"""The benchmark's tracer binds to package functions and methods by name.

`perfbench/tracer.py` wraps each function it names at every module
binding, and each method it names through its class `__dict__`. A rename
or deletion in the package would only show up as a failed traced
benchmark run; these tests make it fail here instead. The tracer is
loaded from its file, so nothing under `perfbench/` needs to be imported
as a package or changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def package_module(name):
    return importlib.import_module(f"{tracer.PACKAGE}.{name}")


@pytest.mark.parametrize(
    "module, function",
    [(m, f) for m, f, _ in tracer.FUNCTIONS + tracer.COUNTED_FUNCTIONS],
)
def test_traced_function_exists(module, function):
    assert callable(getattr(package_module(module), function, None))


@pytest.mark.parametrize(
    "module, cls, method",
    [(m, c, name) for m, c, methods, *_ in tracer.METHODS for name in methods],
)
def test_traced_method_is_in_its_class_dict(module, cls, method):
    owner = getattr(package_module(module), cls)
    assert callable(owner.__dict__.get(method))
