"""Helpers the tests share for things the package itself never asks for."""

from repro.genai.image import ImageResult
from repro.sww.content import ContentType, GeneratedContent


def png_bytes(result: ImageResult) -> bytes:
    """The result's pixels as PNG bytes, from its one shared encode."""
    return result.png_future().result()


def upscaled_image(descriptor: str, src: str, scale: int, name: str = "upscaled") -> GeneratedContent:
    """A §2.2 upscale item.

    The server stores only the small original at ``src``; the client
    fetches it and upscales by ``scale`` locally. ``descriptor`` doubles as
    the prompt field (alt text / verification anchor).
    """
    return GeneratedContent(
        ContentType.IMAGE,
        {"prompt": descriptor, "name": name, "upscale_src": src, "scale": scale},
    )
