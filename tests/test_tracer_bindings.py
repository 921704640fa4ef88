"""The benchmark's span tracer wraps package functions by name; every name it binds must exist.

``perfbench/tracing.py`` looks each traced function up with ``getattr`` in the
module that defines it, then swaps it in every ``vlcnoma`` namespace that
binds it.  Removing or renaming one of those functions makes every traced
benchmark run fail at install, so this test loads the tracer by path and
checks that installing wraps each name and uninstalling puts every binding back.
"""

import importlib.util
import sys
from pathlib import Path

import vlcnoma
import vlcnoma.cli  # noqa: F401  -- loads every layer module the tracer patches
from vlcnoma.quadrature import EmpiricalDistribution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    """Every (module, name) -> value binding of the package and its traced layers."""
    namespaces = [vlcnoma, *(sys.modules[f"vlcnoma.{layer}"] for layer in tracing.LAYERS)]
    return {(ns.__name__, name): value for ns in namespaces for name, value in vars(ns).items()}


def traced_names(tracing):
    """(defining module, name) of each function the tracer wraps."""
    names = {(f"vlcnoma.{layer}", n) for layer, ns in tracing.PLAIN.items() for n in ns}
    names |= {("vlcnoma.simulate", n) for n in tracing.COLLECT}
    names |= {("vlcnoma.gain_cdf", n) for n in tracing.FAMILIES}
    names |= {("vlcnoma.quadrature", n) for n in ("integrate_1d", "integrate_2d_nested")}
    return names


def test_install_wraps_every_traced_name_and_uninstall_restores():
    tracing = load_tracing()
    before = bindings(tracing)
    init = EmpiricalDistribution.__init__
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = bindings(tracing)
    finally:
        tracer.uninstall()
    after = bindings(tracing)

    patched = {key for key in before if during[key] is not before[key]}
    assert traced_names(tracing) <= patched
    assert ("vlcnoma.simulate", "ThreadPoolExecutor") in patched
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert EmpiricalDistribution.__init__ is init
