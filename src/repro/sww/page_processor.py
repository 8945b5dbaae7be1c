"""The HTML-parser side of content generation (paper §4.1, Fig. 1).

    "The HTML Parser extracts the metadata and passes the information to
    a media generator object, alongside a preloaded image generation
    pipeline, in order to generate the actual content. Once content is
    generated, the divisions in the HTML are replaced with accurate paths
    to images, or the actual body of text for text expansion tasks."

:class:`PageProcessor` walks a parsed document, feeds every
``generated-content`` division to the media generator, and rewrites the
tree: image divs become ``<img src="/generated/<name>.png">``, text divs
become paragraph text. Generated image bytes are collected in an asset map
(path → PNG bytes), standing in for the prototype writing files to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.html.dom import Document, Element, Text
from repro.sww.content import CSS_CLASS, ContentError, ContentType, GeneratedContent
from repro.sww.media_generator import GenerationOutput, MediaGenerator, PendingGeneration


@dataclass
class ProcessReport:
    """What a page-processing pass did, with simulated costs."""

    generated_images: int = 0
    generated_texts: int = 0
    skipped_malformed: int = 0
    sim_time_s: float = 0.0
    energy_wh: float = 0.0
    #: path → PNG bytes for every generated image.
    assets: dict[str, bytes] = field(default_factory=dict)
    outputs: list[GenerationOutput] = field(default_factory=list)
    #: Items answered from the generation cache (lookup cost, not steps).
    cache_hits: int = 0
    #: Items that rode another item's in-flight generation (single-flight).
    coalesced: int = 0

    @property
    def generated_total(self) -> int:
        return self.generated_images + self.generated_texts


class PageProcessor:
    """Rewrites generated-content divisions into concrete content."""

    def __init__(self, generator: MediaGenerator, strict: bool = False) -> None:
        self.generator = generator
        #: In strict mode malformed divisions raise; otherwise they are
        #: left in place untouched (a browser would render them empty).
        self.strict = strict

    def find_items(self, document: Document) -> tuple[list[tuple[Element, GeneratedContent]], int]:
        """Parse every well-formed generated-content division, in one walk;
        also returns how many malformed ones were left in place."""
        found: list[tuple[Element, GeneratedContent]] = []
        malformed = 0
        for element in document.find_by_class(CSS_CLASS):
            try:
                found.append((element, GeneratedContent.from_element(element)))
            except ContentError:
                if self.strict:
                    raise
                malformed += 1
        return found, malformed

    def process(self, document: Document) -> ProcessReport:
        """Generate all content in the document and rewrite it in place."""
        report = ProcessReport()
        items, report.skipped_malformed = self.find_items(document)
        outputs = self._generate_all([item for _element, item in items])
        for (element, item), output in zip(items, outputs):
            report.outputs.append(output)
            report.sim_time_s += output.sim_time_s
            report.energy_wh += output.energy_wh
            if output.cache_hit:
                report.cache_hits += 1
            if output.coalesced:
                report.coalesced += 1
            if item.content_type == ContentType.IMAGE:
                self._rewrite_image(element, item, output)
                report.assets[output.asset_path] = output.payload
                report.generated_images += 1
            else:
                self._rewrite_text(element, output)
                report.generated_texts += 1
        return report

    def _generate_all(self, items: list[GeneratedContent]) -> list[GenerationOutput]:
        """``begin`` every item in document order, then ``complete`` in order.

        Solo, each kernel runs inside ``begin`` and its PNG encode overlaps
        the kernels after it; with a batching engine ``begin`` only admits
        the image, so this one thread fills the engine's window. An item
        whose key is in flight, from this page or another, joins that
        flight in the generator. A kernel's or an encode's exception
        leaves as itself, once nothing this page started is still running
        and every flight it leads has failed.
        """
        handles: list[PendingGeneration] = []
        try:
            for item in items:
                handles.append(self.generator.begin(item))
            return [self.generator.complete(handle) for handle in handles]
        except BaseException as exc:
            for handle in handles:
                handle.settle(exc)
            raise

    @staticmethod
    def _rewrite_image(element: Element, item: GeneratedContent, output: GenerationOutput) -> None:
        img = Element(
            "img",
            {
                "src": output.asset_path,
                "alt": item.prompt,
                "width": str(item.width),
                "height": str(item.height),
            },
        )
        element.replace_with(img)

    @staticmethod
    def _rewrite_text(element: Element, output: GenerationOutput) -> None:
        paragraph = Element("p")
        paragraph.append(Text(output.text))
        element.replace_with(paragraph)
