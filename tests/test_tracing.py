"""The benchmark's tracer against the package: every function it times
exists under the name it gives, and a traced pass leaves no wrapper
behind."""

import importlib
import importlib.util
import sys
from pathlib import Path

import superlens_imaging.cli  # noqa: F401  (loads every traced module)

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    # by path: perfbench is a directory beside the package, not part of it
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(tracing, mod_name):
    return importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")


def _bindings(tracing) -> dict:
    """Every name bound in a package module or in a traced class."""
    owners = [m for m in sys.modules.values()
              if getattr(m, "__name__", "").startswith(tracing.PACKAGE)]
    for _, mod_name, attr in tracing.TIMED:
        owner, _, _ = attr.rpartition(".")
        if owner:
            owners.append(getattr(_module(tracing, mod_name), owner))
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_every_traced_name_resolves():
    tracing = _tracing()
    for metric, mod_name, attr in tracing.TIMED:
        obj = _module(tracing, mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (metric, mod_name, attr)
        assert metric in tracing.PER_LAYER


def test_tracer_restores_every_binding():
    tracing = _tracing()
    before = _bindings(tracing)
    experiments = _module(tracing, "experiments")
    run_row = experiments.run_row
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.run_row is not run_row
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
