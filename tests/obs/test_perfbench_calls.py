"""Every public call the benchmark harness wraps in a span resolves.

``perfbench/harness.py`` lists the public functions a traced run wraps
(``PUBLIC_CALLS``: module, owner, attribute, span name). Renaming one
would otherwise surface only as an ``AttributeError`` in a traced
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[2] / "perfbench" / "harness.py"


def _public_calls():
    name = "_perfbench_harness"
    spec = importlib.util.spec_from_file_location(name, HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.PUBLIC_CALLS


PUBLIC_CALLS = _public_calls()


@pytest.mark.parametrize(
    "module_name, owner, attr, span_name", PUBLIC_CALLS,
    ids=[call[3] for call in PUBLIC_CALLS],
)
def test_wrapped_call_resolves(module_name, owner, attr, span_name):
    target = importlib.import_module(module_name)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr))
