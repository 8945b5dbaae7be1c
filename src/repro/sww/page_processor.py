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

from concurrent.futures import wait
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

    def __init__(self, generator: MediaGenerator, strict: bool = False, scheduler=None) -> None:
        self.generator = generator
        #: In strict mode malformed divisions raise; otherwise they are
        #: left in place untouched (a browser would render them empty).
        self.strict = strict
        #: Optional :class:`~repro.gencache.SingleFlightScheduler`: items
        #: generate concurrently on its worker pool, duplicate keys ride
        #: one in-flight generation. Without it, kernels run sequentially
        #: in document order (the paper's prototype behaviour; only the
        #: PNG encodes overlap them) — unless the generator has a
        #: batching engine attached, in which case sequential submission
        #: would starve the engine's admission window, so a scheduler
        #: sized to the window is created automatically.
        if scheduler is None and getattr(generator, "engine", None) is not None:
            from repro.gencache.scheduler import SingleFlightScheduler

            scheduler = SingleFlightScheduler(
                max(2, generator.engine.max_batch),
                registry=generator.engine.registry,
            )
        self.scheduler = scheduler

    def find_items(self, document: Document) -> list[tuple[Element, GeneratedContent]]:
        """Locate and parse every well-formed generated-content division."""
        found: list[tuple[Element, GeneratedContent]] = []
        for element in document.find_by_class(CSS_CLASS):
            try:
                found.append((element, GeneratedContent.from_element(element)))
            except ContentError:
                if self.strict:
                    raise
        return found

    def process(self, document: Document) -> ProcessReport:
        """Generate all content in the document and rewrite it in place."""
        report = ProcessReport()
        malformed = len(document.find_by_class(CSS_CLASS))
        items = self.find_items(document)
        report.skipped_malformed = malformed - len(items)
        for (element, item), output in zip(items, self._generate_all(items)):
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

    def _generate_all(self, items: list[tuple[Element, GeneratedContent]]) -> list[GenerationOutput]:
        """Generate every item, sequentially or via the scheduler."""
        if self.scheduler is None:
            return self._generate_pipelined([item for _element, item in items])

        def thunk(item: GeneratedContent):
            return lambda: self.generator.generate(item)

        tasks = [(self.generator.content_key(item), thunk(item)) for _element, item in items]
        scheduled = self.scheduler.run(tasks)
        outputs: list[GenerationOutput] = []
        for (_element, item), result in zip(items, scheduled):
            if result.coalesced:
                outputs.append(self.generator.adopt_coalesced(item, result.value))
            else:
                outputs.append(result.value)
        return outputs

    def _generate_pipelined(self, items: list[GeneratedContent]) -> list[GenerationOutput]:
        """Every kernel in document order, then every item's bytes.

        Each image's PNG encode starts on the shared pool as its kernel
        finishes and overlaps the kernels after it. A kernel's or an
        encode's exception leaves as itself, once no encode this page
        started is still running.
        """
        pending: list[PendingGeneration] = []
        try:
            for item in items:
                pending.append(self.generator.begin(item))
            return [self.generator.complete(handle) for handle in pending]
        finally:
            wait([handle.encode for handle in pending if handle.encode is not None])

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
