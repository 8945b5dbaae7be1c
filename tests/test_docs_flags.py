"""Documented command lines name options the parser really has.

Every ``--option`` on a ``sww <subcommand> …`` line in ``README.md`` and
``docs/*.md`` (inside a code span or a fenced block — prose is free to
say "--whatever") must be an option of that subcommand's parser, so a
deleted flag cannot live on in the docs.
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^\s*(```|~~~)")
_SPAN = re.compile(r"`([^`\n]+)`")
_COMMAND = re.compile(r"(?:^|[\s$(])(?:sww|python3? -m repro\.cli)\s+(.*)")
_OPTION = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _code_fragments(text: str):
    """(line number, code) for every fenced-block line and inline span."""
    fenced = False
    for number, line in enumerate(text.splitlines(), 1):
        if _FENCE.match(line):
            fenced = not fenced
        elif fenced:
            yield number, line
        else:
            for span in _SPAN.findall(line):
                yield number, span


def _parsers() -> tuple[set[str], dict[str, set[str]]]:
    """Option strings of the top-level parser and of each subcommand."""
    parser = build_parser()
    subcommands = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                subcommands[name] = {
                    option for act in sub._actions for option in act.option_strings
                }
    top = {option for action in parser._actions for option in action.option_strings}
    return top, subcommands


def documented_options(subcommands):
    """(file, line, subcommand or None, option) for each documented mention."""
    for path in DOCUMENTS:
        for number, code in _code_fragments(path.read_text(encoding="utf-8")):
            match = _COMMAND.search(code)
            if match is None:
                continue
            # One shell command: stop at a pipe into another program.
            words = match.group(1).split(" | ")[0].split()
            subcommand = None
            for word in words:
                if subcommand is None and word in subcommands:
                    subcommand = word
                for option in _OPTION.findall(word):
                    yield path.name, number, subcommand, option


def test_every_documented_option_exists():
    top, subcommands = _parsers()
    mentions = list(documented_options(subcommands))
    # The scan is live: it sees the README quick-start and the docs.
    assert len(mentions) >= 20
    assert {"README.md", "OBSERVABILITY.md"} <= {name for name, *_ in mentions}
    stale = [
        f"{name}:{line}: sww {subcommand or ''} {option}"
        for name, line, subcommand, option in mentions
        if option not in (top if subcommand is None else subcommands[subcommand])
    ]
    assert not stale, "documented options the parser does not have:\n" + "\n".join(stale)
