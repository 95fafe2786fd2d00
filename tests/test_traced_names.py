"""Every library name that the benchmark's tracer patches still exists.

`perfbench/tracing.py` (standard library only) binds public functions and
methods of `hodgecalc` by name; a rename or deletion in `src/` would otherwise
surface only when a traced benchmark run fails to install its wrappers.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, attr: str) -> bool:
    mod = importlib.import_module(f"hodgecalc.{module}")
    if "." in attr:
        # the tracer reads a method from the class __dict__: it must be
        # defined on the class itself
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and callable(vars(cls).get(meth))
    return callable(getattr(mod, attr, None))


def test_every_traced_name_resolves():
    tracing = _tracing()
    targets = {pair for pairs in tracing.SPANS.values() for pair in pairs}
    targets |= {("rationals", f"GaussianRational.{meth}") for meth in tracing.ARITHMETIC}
    assert len(targets) > 50
    assert sorted(t for t in targets if not _resolves(*t)) == []
