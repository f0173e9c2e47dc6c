"""The benchmark tracer patches program functions by module and name.

perfbench/spans.py is loaded by path, unchanged, so a rename in the program
that would silently break `perfbench/run.py --trace 1` fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = load_spans()
    missing = [f"{module}.{attr}" for module, attr, _ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_model_and_autodiff_hooks_resolve():
    from binauralize.nn import autodiff, model

    assert callable(model._t)
    assert callable(autodiff.conv2d)
    assert callable(autodiff.conv_transpose2d)
    assert callable(autodiff.Tensor.backward)
    assert "_backward" in autodiff.Tensor.__dict__


def test_tracer_installs_and_restores():
    from binauralize.nn import autodiff, model

    spans = load_spans()
    originals = (model._t, autodiff.conv2d, autodiff.Tensor.backward)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert model._t is not originals[0]
    finally:
        tracer.uninstall()
    assert (model._t, autodiff.conv2d, autodiff.Tensor.backward) == originals
