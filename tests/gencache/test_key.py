"""Content-addressed key identity and stability."""

import dataclasses
import pickle

from repro.gencache import GenerationKey, image_key, key_for_item, text_key
from repro.sww.content import GeneratedContent
from tests.helpers import upscaled_image


def test_equal_inputs_equal_digest():
    a = image_key("sd3-medium", "a red barn", 256, 256, steps=15)
    b = image_key("sd3-medium", "a red barn", 256, 256, steps=15)
    assert a == b
    assert a.digest == b.digest


def test_every_field_is_generation_relevant():
    base = image_key("sd3-medium", "a red barn", 256, 256, steps=15, seed=7)
    variants = [
        image_key("sd3-large", "a red barn", 256, 256, steps=15, seed=7),
        image_key("sd3-medium", "a blue barn", 256, 256, steps=15, seed=7),
        image_key("sd3-medium", "a red barn", 512, 256, steps=15, seed=7),
        image_key("sd3-medium", "a red barn", 256, 512, steps=15, seed=7),
        image_key("sd3-medium", "a red barn", 256, 256, steps=20, seed=7),
        image_key("sd3-medium", "a red barn", 256, 256, steps=15, seed=8),
        image_key("sd3-medium", "a red barn", 256, 256, steps=15, seed=None),
    ]
    digests = {k.digest for k in variants}
    assert base.digest not in digests
    assert len(digests) == len(variants)


def test_digest_is_stable_across_processes():
    # Pinned value: the digest must never depend on salted hash() or
    # process state. If this changes, every persisted cache is invalidated.
    key = image_key("sd3-medium", "a red barn", 256, 256, steps=15)
    assert key.digest == "5cf322cea191b3257243e3b50935a42d"
    assert key.digest == GenerationKey(
        model="sd3-medium",
        prompt="a red barn",
        seed=None,
        steps=15,
        width=256,
        height=256,
        content_type="img",
    ).digest
    assert len(key.digest) == 32
    int(key.digest, 16)  # hex


def test_text_key_includes_words_and_topic():
    a = text_key("deepseek-r1-8b", "- a\n- b", 250, "travel")
    b = text_key("deepseek-r1-8b", "- a\n- b", 100, "travel")
    c = text_key("deepseek-r1-8b", "- a\n- b", 250, "food")
    assert len({a.digest, b.digest, c.digest}) == 3


def test_image_and_text_keys_never_collide():
    image = image_key("m", "prompt", 0, 0)
    text = text_key("m", "prompt", 0, "")
    assert image.digest != text.digest


def test_key_for_item_dispatches_by_modality():
    image_item = GeneratedContent.image("a red barn", name="barn", width=256, height=256)
    text_item = GeneratedContent.text("- a", words=100, topic="travel")
    ik = key_for_item(image_item, "img-default", "txt-default")
    tk = key_for_item(text_item, "img-default", "txt-default")
    assert ik == image_key("img-default", "a red barn", 256, 256)
    assert tk == text_key("txt-default", "- a", 100, "travel")


def test_item_model_overrides_the_default():
    item = GeneratedContent.image("a red barn", model="sd3-large")
    key = key_for_item(item, "sd3-medium", "txt")
    assert key is not None and key.model == "sd3-large"


def test_upscale_items_are_uncacheable():
    item = upscaled_image("a pier at dusk", "/thumbs/pier.jpg", 4)
    assert key_for_item(item, "img", "txt") is None


def test_digest_is_memoised_without_becoming_part_of_the_identity():
    key = image_key("sd3-medium", "a red barn", 256, 256, steps=15)
    fresh = image_key("sd3-medium", "a red barn", 256, 256, steps=15)
    assert key.digest == "5cf322cea191b3257243e3b50935a42d"  # warms key's memo only
    # A warm key and a cold one are the same key: the memo is not a field.
    assert key == fresh and hash(key) == hash(fresh)
    assert key.digest is key.digest
    assert fresh.digest == key.digest

    # `replace` builds a new key, so it hashes its own fields.
    other = dataclasses.replace(key, prompt="a blue barn")
    assert other.digest == image_key("sd3-medium", "a blue barn", 256, 256, steps=15).digest
    assert other.digest != key.digest

    # A pickled key keeps its identity whether or not its memo was warm.
    for original in (key, image_key("sd3-medium", "a red barn", 256, 256, steps=15)):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and hash(copy) == hash(original)
        assert copy.digest == original.digest
