"""The README's documented workflows still run: every ``boxlab`` command in its
``sh`` blocks parses, the Python quick start gives the values its comments show,
and every boxlab name it puts in backticks exists.
"""

import ast
import importlib
import pathlib
import pkgutil
import re
import shlex

import boxlab
from boxlab.cli import build_parser

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def _commands() -> list[list[str]]:
    """Each ``boxlab ...`` command line of the ``sh`` blocks, continuation lines joined."""
    lines = [line for block in _blocks("sh") for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("boxlab ")]


def test_every_documented_command_parses():
    commands = _commands()
    assert [argv[0] for argv in commands] == [
        "evaluate", "split", "convergence", "anchors", "anchors", "augment-plan", "report",
    ]
    for argv in commands:
        args = build_parser().parse_args(argv)  # argparse exits 2 on a flag it does not know
        assert args.command == argv[0]


def test_python_quick_start_gives_its_commented_values():
    [block] = _blocks("python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip().removeprefix("-> ")
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue  # no comment, or one in words
        # The value shown is that of the expression, or of the name assigned.
        shown = stmt.value if isinstance(stmt, ast.Expr) else stmt.targets[0]
        value = eval(ast.unparse(shown), namespace)
        assert value == expected, (ast.unparse(stmt), value, expected)
        checked.append(expected)
    assert checked == [0.75, [0], (1.0, 1.0, 1.0)]


def test_every_named_module_attribute_exists():
    # A Convention that names a deleted helper (`losses._lane_loss`) must fail here.
    modules = {m.name for m in pkgutil.iter_modules(boxlab.__path__)}
    named = {(m, name) for m, name in re.findall(r"`(?:boxlab\.)?(\w+)\.(\w+)`", README) if m in modules}
    assert len(named) >= 10
    missing = [f"{m}.{name}" for m, name in sorted(named) if not hasattr(importlib.import_module(f"boxlab.{m}"), name)]
    assert missing == []
