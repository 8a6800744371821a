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


SRC_STATEMENTS = [
    (path.stem, stmt) for path in sorted((ROOT / "src" / "boxlab").glob("*.py"))
    for stmt in ast.parse(path.read_text(), str(path)).body
]


def _reads(node: ast.AST) -> set[str]:
    """The names ``node`` reads: Load-context names and attributes, and the names ``from`` imports take.
    A ``def``'s own name, an assignment target and an ``__all__`` entry are none of them."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def test_every_public_name_has_a_caller():
    # The rule for public names: one that no code in src/ calls and no documented workflow
    # needs is deleted. The README's code blocks are the documented workflows, and bench/
    # holds the harness's worker and the tracer, which rebinds names by their strings.
    fenced = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S))
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    used = set().union(*(_reads(stmt) for _, stmt in SRC_STATEMENTS))
    uncalled = [
        f"{module}.{name}" for module in MODULES for name in _module(module).__all__
        if name not in used and not any(re.search(rf"\b{name}\b", text) for text in (fenced, bench))
    ]
    assert uncalled == []


def test_every_private_name_has_a_src_reader():
    # A module-level private name (a def, a class or an assigned name, not a dunder) that only
    # tests read is test code kept in src/: it is deleted, or moved into the test that needs it.
    # Names are matched by spelling, and the statement that defines a name does not count as its reader.
    reads = [_reads(stmt) for _, stmt in SRC_STATEMENTS]
    private, unread = 0, []
    for index, (module, stmt) in enumerate(SRC_STATEMENTS):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                private += 1
                if not any(name in r for i, r in enumerate(reads) if i != index):
                    unread.append(f"{module}.{name}")
    assert private > 50  # the walk sees the module-level private names
    assert unread == []


def test_every_python_file_parses_as_python_3_10():
    # requires-python is >=3.10: newer syntax (an except* clause, a PEP 695 type alias) fails here,
    # on whichever interpreter runs the suite.
    paths = [path for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
