"""Every function, class and method under ``src/`` has a caller.

One AST pass reads ``src/``, ``bench/``, ``benchmarks/`` and
``examples/``. A definition in ``src/`` counts as referenced when its name
appears anywhere in those trees other than as a definition: as a name, an
attribute, an import, a keyword argument, or a word of a string (a
docstring that cites it, a ``getattr``). Dunder methods are called by the
language. Tests do not count: a name only tests call is code no path
runs, so it leaves ``src/`` or moves into a test helper.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_]\w*")

#: Kept although nothing here calls them, each for its one reason.
ALLOWED = {
    "send_ping": "H2Connection outbound protocol surface, driven by protocol tests",
    "reset_stream": "H2Connection outbound protocol surface, driven by protocol tests",
    "send_priority_update": "H2Connection protocol surface (RFC 9218), driven by protocol tests",
    "update_settings": "H2Connection protocol surface (mid-connection SETTINGS), driven by protocol tests",
    "resume_writing": "asyncio.Protocol callback, called by the event loop",
    "take_events": "the sans-io test harness's event accessor on Endpoint",
}


def _scan() -> tuple[dict[str, list[str]], set[str]]:
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for tree_name in SCANNED:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if tree_name == "src":
                        where = f"{path.relative_to(ROOT)}:{node.lineno}"
                        defined.setdefault(node.name, []).append(where)
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.keyword) and node.arg:
                    referenced.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.update(WORD.findall(node.value))
    return defined, referenced


def test_every_definition_has_a_caller():
    defined, referenced = _scan()
    unreferenced = {
        name: where
        for name, where in defined.items()
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    }
    assert {name: where for name, where in unreferenced.items() if name not in ALLOWED} == {}
    # An allowance whose name gained a caller, or left src/, goes too.
    assert sorted(unreferenced) == sorted(ALLOWED)
