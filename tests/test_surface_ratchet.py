"""The configuration surface may only shrink.

Each ceiling is the count at the commit that last changed it. A new CLI
argument or constructor knob fails here until someone raises a number in
a diff, where a reviewer sees it (simplicity-review: every independent
option doubles the configurations tests and benchmarks must cover).
Lower a ceiling whenever the count drops.
"""

import argparse
import inspect

import pytest

from repro.batching import BatchingEngine
from repro.cdn.edge import EdgeNode
from repro.cli import build_parser
from repro.genai.pipeline import GenerationPipeline
from repro.http2.endpoint import ClientConnection, ServerConnection
from repro.http2.writer import ConnectionWriter
from repro.obs import FlightRecorder
from repro.serving import Arbiter, ArbiterConfig, CacheTierServer, RemoteGenerationCache
from repro.sww.admin import AdminPlane
from repro.sww.client import GenerativeClient
from repro.sww.media_generator import MediaGenerator
from repro.sww.page_processor import PageProcessor
from repro.sww.proxy import SwwEdgeProxy
from repro.sww.server import GenerativeServer

CLI_ARGUMENTS_CEILING = 76
INIT_PARAMETER_CEILINGS = {
    GenerativeClient: 9,
    GenerativeServer: 13,
    ServerConnection: 2,
    ClientConnection: 2,
    PageProcessor: 2,
    MediaGenerator: 3,
    # A config object's fields are options too (dataclass __init__).
    ArbiterConfig: 9,
    Arbiter: 2,
    RemoteGenerationCache: 2,
    CacheTierServer: 3,
    ConnectionWriter: 3,
    BatchingEngine: 7,
    AdminPlane: 7,
    SwwEdgeProxy: 2,
    EdgeNode: 7,
    FlightRecorder: 7,
    GenerationPipeline: 4,
}


def _cli_arguments(parser: argparse.ArgumentParser) -> int:
    """Every argument of the parser and its subcommands, ``--help`` aside."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            # Aliases map several names to one subparser: count it once.
            count += sum(_cli_arguments(sub) for sub in dict.fromkeys(action.choices.values()))
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_cli_argument_count_does_not_grow():
    assert _cli_arguments(build_parser()) <= CLI_ARGUMENTS_CEILING


@pytest.mark.parametrize("cls", INIT_PARAMETER_CEILINGS, ids=lambda cls: cls.__name__)
def test_constructor_parameter_count_does_not_grow(cls):
    parameters = len(inspect.signature(cls.__init__).parameters) - 1  # self
    assert parameters <= INIT_PARAMETER_CEILINGS[cls]
