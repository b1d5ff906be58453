"""The benchmark's span and counter hooks must find their targets.

perfbench/spans.py wraps skycell names as stored on their owner (a module
attribute or a class's own __dict__) and reports a missing one as "not
observed" without failing. A refactor that renames such a name or moves a
method into a base class would silently blind the benchmark; this test makes
it fail instead. The file is loaded read-only; nothing is patched.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


TARGETS = spans.SPAN_TARGETS + spans.COUNT_TARGETS


@pytest.mark.parametrize("owner, attr, name", TARGETS, ids=[name for *_, name in TARGETS])
def test_hook_target_is_defined_on_its_owner(owner, attr, name):
    assert attr in vars(spans._resolve(owner)), f"{name}: {owner}.{attr} is not defined there"
