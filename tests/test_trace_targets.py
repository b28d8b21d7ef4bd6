"""Every function and method that ``perfbench/tracer.py`` wraps exists in
``gluecheck``.  ``Tracer.install`` looks each name up with ``getattr`` (a
method in its class's own ``__dict__``), so removing a listed name breaks
every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(f"{tracer.PACKAGE}.{module}", name)
            for module, names in tracer.TARGETS.items() for name in names]


@pytest.mark.parametrize("module,name", traced_names())
def test_traced_name_is_defined(module, name):
    home = importlib.import_module(module)
    if "." in name:
        cls_name, attr = name.split(".")
        assert attr in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, name))
