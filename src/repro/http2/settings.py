"""HTTP/2 SETTINGS parameters, including the paper's SWW extension.

RFC 9113 §6.5.2 defines six parameters; the paper adds a seventh,
``SETTINGS_GEN_ABILITY`` with identifier 0x07 ("the first unreserved value,
for prototyping purposes") and value 1 to advertise client-side content
generation. Recipients that do not recognise the identifier ignore it, which
is what makes the extension backward compatible: a naive peer simply keeps
speaking vanilla HTTP/2.

The paper notes the 32-bit value field can carry richer capability
descriptions than a boolean (e.g. "upscale-only"); :class:`GenAbility`
implements that negotiation space as a small bitfield codec that callers may
use while staying wire-compatible with the boolean prototype (value 1 ==
full generation support, value 0 / absent == no support).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.http2.errors import ErrorCode, ProtocolError


class Setting(enum.IntEnum):
    """Registered SETTINGS identifiers plus the SWW extension."""

    HEADER_TABLE_SIZE = 0x1
    ENABLE_PUSH = 0x2
    MAX_CONCURRENT_STREAMS = 0x3
    INITIAL_WINDOW_SIZE = 0x4
    MAX_FRAME_SIZE = 0x5
    MAX_HEADER_LIST_SIZE = 0x6
    #: SWW extension (paper §3): sender implements client-side generation.
    GEN_ABILITY = 0x7


#: Convenience alias mirroring the paper's name for the parameter.
SETTINGS_GEN_ABILITY = Setting.GEN_ABILITY

DEFAULT_SETTINGS: dict[int, int] = {
    Setting.HEADER_TABLE_SIZE: 4096,
    Setting.ENABLE_PUSH: 1,
    Setting.MAX_CONCURRENT_STREAMS: 2**31 - 1,  # "unlimited" by default
    Setting.INITIAL_WINDOW_SIZE: 65_535,
    Setting.MAX_FRAME_SIZE: 16_384,
    Setting.MAX_HEADER_LIST_SIZE: 2**31 - 1,
    Setting.GEN_ABILITY: 0,
}

MAX_WINDOW = 2**31 - 1
MAX_FRAME_SIZE_CEILING = 2**24 - 1


def validate_setting(identifier: int, value: int) -> None:
    """Enforce the per-parameter value constraints of RFC 9113 §6.5.2."""
    if identifier == Setting.ENABLE_PUSH and value not in (0, 1):
        raise ProtocolError(f"ENABLE_PUSH must be 0 or 1, got {value}")
    if identifier == Setting.INITIAL_WINDOW_SIZE and value > MAX_WINDOW:
        raise ProtocolError(
            f"INITIAL_WINDOW_SIZE {value} exceeds 2^31-1",
            ErrorCode.FLOW_CONTROL_ERROR,
        )
    if identifier == Setting.MAX_FRAME_SIZE and not 16_384 <= value <= MAX_FRAME_SIZE_CEILING:
        raise ProtocolError(f"MAX_FRAME_SIZE {value} outside [2^14, 2^24-1]")


class Settings:
    """The settings a peer has advertised (one instance per direction).

    Each endpoint stores the latest settings received from its peer and uses
    them to structure messages on *all* streams (RFC 9113 §6.5). Unknown
    identifiers are stored but otherwise ignored, matching §6.5.2.
    """

    def __init__(self, initial: dict[int, int] | None = None) -> None:
        self._values = dict(DEFAULT_SETTINGS)
        if initial:
            self.update(initial)

    def update(self, changes: dict[int, int]) -> dict[int, int]:
        """Apply a received SETTINGS payload; returns the applied changes."""
        applied: dict[int, int] = {}
        for identifier, value in changes.items():
            validate_setting(identifier, value)
            self._values[identifier] = value
            applied[identifier] = value
        return applied

    def __getitem__(self, identifier: int) -> int:
        return self._values.get(identifier, 0)

    def get(self, identifier: int, default: int = 0) -> int:
        return self._values.get(identifier, default)

    @property
    def header_table_size(self) -> int:
        return self._values[Setting.HEADER_TABLE_SIZE]

    @property
    def initial_window_size(self) -> int:
        return self._values[Setting.INITIAL_WINDOW_SIZE]

    @property
    def max_frame_size(self) -> int:
        return self._values[Setting.MAX_FRAME_SIZE]

    @property
    def max_concurrent_streams(self) -> int:
        return self._values[Setting.MAX_CONCURRENT_STREAMS]

    @property
    def enable_push(self) -> bool:
        return bool(self._values[Setting.ENABLE_PUSH])

    @property
    def gen_ability(self) -> bool:
        """True when the peer advertised SWW generation support."""
        return bool(self._values.get(Setting.GEN_ABILITY, 0))


class GenCapability(enum.IntFlag):
    """Bit layout for a richer GEN_ABILITY value (paper §3, last paragraph).

    Bit 0 is kept as the prototype's boolean so that value ``1`` still means
    "full client-side generation". Higher bits refine the claim; a receiver
    that only understands the boolean sees bit 0 and behaves correctly.
    """

    NONE = 0
    GENERATE = 1 << 0  # full prompt-to-content generation
    UPSCALE_ONLY = 1 << 1  # §2.2: content upscaling without generation
    TEXT = 1 << 2  # text-to-text expansion supported
    IMAGE = 1 << 3  # text-to-image supported
    VIDEO_FRAMERATE = 1 << 4  # §3.2: client-side frame-rate boosting
    VIDEO_RESOLUTION = 1 << 5  # §3.2: client-side resolution upscaling


@dataclass(frozen=True)
class GenAbility:
    """Decoded view of a peer's GEN_ABILITY setting value."""

    value: int

    @classmethod
    def full(cls) -> "GenAbility":
        """The prototype's advertisement: plain value 1."""
        return cls(int(GenCapability.GENERATE | GenCapability.TEXT | GenCapability.IMAGE))

    @classmethod
    def boolean(cls, supported: bool) -> "GenAbility":
        return cls(1 if supported else 0)

    @property
    def supported(self) -> bool:
        return bool(self.value & GenCapability.GENERATE)

    def supports(self, capability: GenCapability) -> bool:
        if capability == GenCapability.NONE:
            return True
        # Value 1 (bare boolean) implies full generation of text and images,
        # matching the prototype's interpretation.
        if self.value == 1 and capability in (GenCapability.TEXT, GenCapability.IMAGE, GenCapability.GENERATE):
            return True
        return bool(self.value & capability)
