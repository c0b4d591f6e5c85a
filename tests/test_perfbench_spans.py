"""Every name the traced benchmark run wraps (``perfbench/spans.FUNCTION_SPANS``) exists in ``hqoc``.

A refactor that drops or renames one of them fails here, not only in the traced run.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _function_spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTION_SPANS


@pytest.mark.parametrize("span,target", sorted(_function_spans().items()))
def test_function_span_target_resolves(span, target):
    module, attr = target
    obj = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(obj), span
