"""Every name the traced benchmark run wraps still exists in pakelab.

perfbench/tracing.py replaces functions and methods by name; a rename in
pakelab would otherwise surface only when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from pakelab.netio.service import Service

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_traced_run_wraps_resolves():
    tracing = _tracing()
    for module_name, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"
    for module_name, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, f"{module_name}.{cls_name}.{attr}"
    assert "_handle_connection" in Service.__dict__
