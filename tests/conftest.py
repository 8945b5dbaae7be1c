"""Shared fixtures for the SWW reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.devices import LAPTOP, WORKSTATION
from repro.genai.pipeline import GenerationPipeline
from repro.http2.connection import H2Connection, Role
from repro.http2.transport import InMemoryTransportPair


@pytest.fixture
def h2_pair() -> InMemoryTransportPair:
    """A handshaken client/server pair, both SWW-capable."""
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, gen_ability=True),
        H2Connection(Role.SERVER, gen_ability=True),
    )
    pair.handshake()
    return pair


def make_pair(client_gen: bool = True, server_gen: bool = True) -> InMemoryTransportPair:
    """Build a handshaken pair with chosen capabilities."""
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, gen_ability=client_gen),
        H2Connection(Role.SERVER, gen_ability=server_gen),
    )
    pair.handshake()
    return pair


@pytest.fixture(scope="session")
def laptop_pipeline() -> GenerationPipeline:
    return GenerationPipeline(LAPTOP)


@pytest.fixture(scope="session")
def workstation_pipeline() -> GenerationPipeline:
    return GenerationPipeline(WORKSTATION)


@pytest.fixture(scope="session")
def landscape_prompt() -> str:
    return "a landscape photograph of a snowcapped range above an alpine lake, in soft morning light with long shadows"


# The supervision policy's and the generation flight's long sweeps (a
# separate CI job) run with ``--hypothesis-profile=sweep``; tier-1 keeps
# hypothesis' default count.
settings.register_profile("sweep", max_examples=20_000, deadline=None, print_blob=True)
