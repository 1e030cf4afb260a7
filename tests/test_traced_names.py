"""Every name the benchmark tracer wraps must exist in the library.

``perfbench/tracer.py`` patches each ``module.attr`` of its ``TRACED`` table
and raises on a missing one, so deleting a traced name breaks every
``perfbench/run.py --trace 1`` run. The tracer is loaded by file path, since
``perfbench`` is not a package on the test path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolves(module: str, attr: str) -> bool:
    target = importlib.import_module(f"obstructions.{module}")
    for part in attr.split("."):
        target = getattr(target, part, None)
    return callable(target)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attrs in tracer.TRACED.items()
             for attr in attrs]
    assert names
    missing = [f"{module}.{attr}" for module, attr in names
               if not _resolves(module, attr)]
    assert not missing, f"traced names missing from obstructions: {missing}"
