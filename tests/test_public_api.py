"""Public names: each layer exports what it binds, and the root re-exports only those."""

import ast
import importlib
import inspect
import pkgutil

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
