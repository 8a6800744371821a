"""Each module's ``__all__`` is the one list of its public names, and ``boxlab`` republishes every list whole."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import types
from collections import Counter

import pytest

import boxlab

MODULES = ["errors", "geometry", "losses", "proposals", "evaluation", "augment", "descent", "coco_io", "reports"]
NOT_REPUBLISHED = {"cli", "__main__"}
# Every parameter of these has a caller that sets it; none has a default that only tests change.
SIGNATURES = {
    "run_descent": ["init", "target", "kind", "cfg"],
    "sample_pairs": ["n", "seed"],
    "convergence_study": ["trials", "loss_kinds", "seed", "cfg"],
    "shift_scale_rotate_box": ["b", "dx", "dy", "s", "angle_deg", "image_width", "image_height"],
    "load_predictions": ["path", "manifest"],
    "loss": ["kind", "gt", "pred"],
}


def _module(name: str) -> types.ModuleType:
    return importlib.import_module(f"boxlab.{name}")


def test_every_library_module_defines_all():
    found = {info.name for info in pkgutil.iter_modules(boxlab.__path__)}
    assert found - NOT_REPUBLISHED == set(MODULES)
    for name in MODULES:
        assert isinstance(getattr(_module(name), "__all__", None), list), name


def test_package_names_are_the_union_of_module_all_lists():
    public = {
        name for name, value in vars(boxlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in MODULES for name in _module(module).__all__}


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve_to_the_package_binding(module):
    mod = _module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"boxlab.{module}.__all__ lists {name!r}, which it does not define"
        assert getattr(boxlab, name) is getattr(mod, name), name


def test_no_name_is_exported_twice():
    # A wildcard import would silently shadow the earlier module's binding.
    counts = Counter(name for module in MODULES for name in _module(module).__all__)
    assert [name for name, n in counts.items() if n > 1] == []


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature(name):
    parameters = inspect.signature(getattr(boxlab, name)).parameters
    assert list(parameters) == SIGNATURES[name]
    if name == "load_predictions":
        assert parameters["manifest"].default is inspect.Parameter.empty


def test_descent_config_has_no_loss_kind():
    # The study gives each kind to run_descent; a config field would be one more value to override.
    assert "loss_kind" not in inspect.signature(boxlab.DescentConfig).parameters
    assert not hasattr(boxlab, "PairSampler")


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _names_used_in_src() -> set[str]:
    """Every name read, attribute taken or name imported in ``src/boxlab``: a ``def``'s own name
    and an ``__all__`` entry are neither, so a name that only defines and lists itself is absent."""
    used = set()
    for path in sorted((ROOT / "src" / "boxlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_caller():
    # The rule for public names: one that no code in src/ calls and no documented workflow
    # needs is deleted. The README's code blocks are the documented workflows, and bench/
    # holds the harness's worker and the tracer, which rebinds names by their strings.
    fenced = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S))
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    used = _names_used_in_src()
    uncalled = [
        f"{module}.{name}" for module in MODULES for name in _module(module).__all__
        if name not in used and not any(re.search(rf"\b{name}\b", text) for text in (fenced, bench))
    ]
    assert uncalled == []
