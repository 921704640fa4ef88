"""Public names: each layer exports what it binds, and the root re-exports only those."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import vlcnoma

# Layer modules are the ones that declare their exports.
LAYERS = {
    name: module
    for name, module in (
        (info.name, importlib.import_module(f"vlcnoma.{info.name}"))
        for info in pkgutil.iter_modules(vlcnoma.__path__)
    )
    if hasattr(module, "__all__")
}


def root_imports():
    """(module, name) for every public name the package root imports from a sibling module."""
    tree = ast.parse(inspect.getsource(vlcnoma))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if not alias.name.startswith("_")
    ]


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_all_names_are_bound(layer):
    module = LAYERS[layer]
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"vlcnoma.{layer}.__all__ names unbound {missing}"


def test_feedback_modes_are_one_table():
    """The mode table and its record type are the only feedback-mode exports."""
    rates = LAYERS["rates"]
    modes = {name for name in rates.__all__ if "MODE" in name.upper()}
    assert modes == {"FEEDBACK_MODES", "FeedbackMode", "OMA_MODES", "canonical_feedback_mode"}
    assert vlcnoma.FEEDBACK_MODES is rates.FEEDBACK_MODES
    assert vlcnoma.FeedbackMode is rates.FeedbackMode


def test_root_reexports_only_layer_exports():
    imports = root_imports()
    assert any(layer in LAYERS for layer, _ in imports)
    stray = [
        f"{layer}.{name}"
        for layer, name in imports
        if layer in LAYERS and name not in LAYERS[layer].__all__
    ]
    assert not stray, f"the package root imports names outside their layer's __all__: {stray}"


def runtime_references():
    """Names the package's runtime code reads, as a name, an attribute or a string.

    A top-level statement's references to the names it binds do not count, nor
    do ``__all__`` lists or the package root, which only re-exports.
    """
    seen = set()
    for path in sorted(Path(vlcnoma.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = {stmt.name}
            else:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                bound = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in bound:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    # gain_cdf._set_family looks the two-bit CDFs up by name.
                    name = node.value
                else:
                    continue
                if name not in bound:
                    seen.add(name)
    return seen


# Test-only names that the perfbench tracer wraps by name; they go with the
# benchmark change of ROADMAP item 6.
TEST_ONLY = {"geometry.mean_dc_gain", "quadrature.integrate_2d_nested", "rates.sum_rate_oma"}


def test_every_export_has_a_runtime_caller():
    """No public API that only tests call: each export is read by other runtime code."""
    seen = runtime_references()
    unused = {
        f"{layer}.{name}"
        for layer, module in LAYERS.items()
        for name in module.__all__
        if name not in seen
    }
    assert unused == TEST_ONLY
