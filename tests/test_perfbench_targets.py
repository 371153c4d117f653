"""The benchmark's traced run wraps library functions by name; each name it
lists must still resolve, so a rename fails here rather than in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _targets()],
                         ids=lambda v: v)
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):  # "Class.method" resolves on its class
        obj = getattr(obj, part)
    assert callable(obj)
