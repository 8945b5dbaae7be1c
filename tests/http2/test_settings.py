"""Tests for SETTINGS handling and the GEN_ABILITY extension."""

import pytest

from repro.http2.errors import ProtocolError
from repro.http2.settings import (
    DEFAULT_SETTINGS,
    GenAbility,
    GenCapability,
    SETTINGS_GEN_ABILITY,
    Setting,
    Settings,
    validate_setting,
)


class TestIdentifiers:
    def test_gen_ability_is_0x07(self):
        """The paper: 'The identifier is 0x07 (as the first unreserved
        value, for prototyping purposes)'."""
        assert Setting.GEN_ABILITY == 0x07
        assert SETTINGS_GEN_ABILITY == 0x07

    def test_six_reserved_parameters_precede_it(self):
        reserved = [s for s in Setting if s != Setting.GEN_ABILITY]
        assert len(reserved) == 6
        assert all(s < Setting.GEN_ABILITY for s in reserved)


class TestValidation:
    def test_enable_push_binary(self):
        validate_setting(Setting.ENABLE_PUSH, 0)
        validate_setting(Setting.ENABLE_PUSH, 1)
        with pytest.raises(ProtocolError):
            validate_setting(Setting.ENABLE_PUSH, 2)

    def test_window_size_cap(self):
        validate_setting(Setting.INITIAL_WINDOW_SIZE, 2**31 - 1)
        with pytest.raises(ProtocolError):
            validate_setting(Setting.INITIAL_WINDOW_SIZE, 2**31)

    def test_max_frame_size_range(self):
        validate_setting(Setting.MAX_FRAME_SIZE, 16_384)
        validate_setting(Setting.MAX_FRAME_SIZE, 2**24 - 1)
        with pytest.raises(ProtocolError):
            validate_setting(Setting.MAX_FRAME_SIZE, 16_383)
        with pytest.raises(ProtocolError):
            validate_setting(Setting.MAX_FRAME_SIZE, 2**24)


class TestSettingsState:
    def test_defaults(self):
        settings = Settings()
        assert settings.header_table_size == 4096
        assert settings.initial_window_size == 65_535
        assert settings.max_frame_size == 16_384
        assert settings.enable_push
        assert not settings.gen_ability

    def test_update_applies(self):
        settings = Settings()
        settings.update({Setting.GEN_ABILITY: 1})
        assert settings.gen_ability

    def test_unknown_identifier_stored_but_harmless(self):
        """§6.5.2: 'A recipient receiving an unrecognized setting ignores
        it' — we store it (so it can be queried) and nothing else changes."""
        settings = Settings()
        settings.update({0xAB: 7})
        assert settings.get(0xAB) == 7
        assert settings.max_frame_size == DEFAULT_SETTINGS[Setting.MAX_FRAME_SIZE]

    def test_gen_ability_nonzero_value_counts_as_support(self):
        settings = Settings()
        settings.update({Setting.GEN_ABILITY: int(GenCapability.GENERATE | GenCapability.IMAGE)})
        assert settings.gen_ability


class TestGenAbilityBitfield:
    def test_boolean_prototype_value(self):
        assert GenAbility.boolean(True).value == 1
        assert GenAbility.boolean(True).supported
        assert not GenAbility.boolean(False).supported

    def test_value_one_implies_text_and_image(self):
        ability = GenAbility(1)
        assert ability.supports(GenCapability.TEXT)
        assert ability.supports(GenCapability.IMAGE)

    def test_upscale_only(self):
        ability = GenAbility(int(GenCapability.UPSCALE_ONLY))
        assert ability.supports(GenCapability.UPSCALE_ONLY)
        assert not ability.supported

    def test_full_advertisement(self):
        ability = GenAbility.full()
        assert ability.supported
        assert ability.supports(GenCapability.TEXT)
        assert ability.supports(GenCapability.IMAGE)
        assert not ability.supports(GenCapability.VIDEO_FRAMERATE)

    def test_video_capabilities_independent(self):
        value = int(GenCapability.GENERATE | GenCapability.VIDEO_FRAMERATE)
        ability = GenAbility(value)
        assert ability.supports(GenCapability.VIDEO_FRAMERATE)
        assert not ability.supports(GenCapability.VIDEO_RESOLUTION)
