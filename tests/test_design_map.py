"""DESIGN.md §3's module map matches the tree.

The map names every module under ``src/repro`` (package ``__init__``
files aside), and every module it names exists. A map line is a file
indented two spaces (top level) or four (inside the two-space directory
above it); deeper lines continue a description.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "repro"


def _mapped() -> set[str]:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("## 3. System inventory", 1)[1].split("```", 2)[1]
    mapped, directory = set(), ""
    for line in block.splitlines():
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        name = line.split()[0]
        if indent == 2 and name.endswith("/"):
            directory = name
        elif indent in (2, 4) and name.endswith(".py"):
            mapped.add(name if indent == 2 else directory + name)
    return mapped


def _modules() -> set[str]:
    return {
        path.relative_to(SOURCES).as_posix()
        for path in SOURCES.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_module_is_on_the_map():
    assert sorted(_modules() - _mapped()) == []


def test_every_mapped_module_exists():
    assert sorted(_mapped() - _modules()) == []
