"""Model negotiation (paper §7, Next Steps).

    "Model updates will likely be distributed as part of browser updates.
    Negotiating models is another aspect to consider."

The SETTINGS bit says *whether* a client can generate; it cannot say
*with which models*. A page authored against SD 3 Medium rendered by a
client that only ships SD 2.1 silently degrades quality (Table 1's gap).
The mechanism here closes that hole at the HTTP layer:

* the client lists its installed models in an ``sww-models`` request
  header (an ordered, comma-separated preference list);
* the server rewrites each generated-content item's ``model`` field to
  the client's best installed model of the same modality, tracking the
  quality delta;
* items whose modality the client cannot generate at all make the page
  ineligible for generative serving — the server falls back to
  server-side generation for the whole page (mixed delivery would need
  per-item negotiation, which the prototype keeps out of scope).

What the rewrite produces depends on a client's list only through the
negotiation's *decision* (:meth:`PageModels.decision`): its best installed
model per modality on the page, and which of the page's explicitly
requested models it has. A server can therefore keep a page's answer per
decision: one per choice of a registry model per modality and subset of
its k requested names (2**k), however many lists clients send.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.genai.registry import IMAGE_MODELS, TEXT_MODELS
from repro.html import parse_html, serialize
from repro.sww.content import CSS_CLASS, ContentError, GeneratedContent

#: The request header carrying the client's installed models.
MODELS_HEADER = b"sww-models"


def encode_models_header(models: list[str]) -> bytes:
    """Client side: serialize the installed-model list."""
    return ",".join(models).encode("ascii")


def parse_models_header(value: bytes) -> list[str]:
    """Server side: parse, preserving the client's preference order; a
    repeated name keeps its first place only, all negotiation reads of it."""
    names = (name.strip() for name in value.decode("ascii", "replace").split(","))
    return list(dict.fromkeys(name for name in names if name))


def _modality(name: str) -> str | None:
    if name in IMAGE_MODELS:
        return "img"
    if name in TEXT_MODELS:
        return "txt"
    return None


def _best_of(modality: str, installed: list[str]) -> str | None:
    """The client's highest-quality installed model for a modality.

    Image models rank by fidelity, text models by (1 - drift); ties break
    by the client's stated preference order.
    """
    # Each name once, so a tie-break's index() scans at most the registry.
    candidates = list(dict.fromkeys(name for name in installed if _modality(name) == modality))
    if not candidates:
        return None
    if modality == "img":
        return max(candidates, key=lambda n: (IMAGE_MODELS[n].fidelity, -candidates.index(n)))
    return max(candidates, key=lambda n: (1 - TEXT_MODELS[n].drift, -candidates.index(n)))


@dataclass(frozen=True)
class PageModels:
    """What negotiation reads of a page: the modalities of its items, and
    the models its items request by name, each once in document order."""

    modalities: tuple[str, ...]
    requested: tuple[str, ...]

    def decision(self, installed: list[str]) -> tuple:
        """What :func:`negotiate_models` decides for a client with
        ``installed``: its result is a function of this key alone."""
        return (
            tuple(_best_of(modality, installed) for modality in self.modalities),
            tuple(name in installed for name in self.requested),
        )


@dataclass
class ModelNegotiationReport:
    """What model negotiation decided for one page."""

    compatible: bool = True
    rewritten: int = 0
    unchanged: int = 0
    #: (item name, requested model, substituted model) per rewrite.
    substitutions: list[tuple[str, str, str]] = field(default_factory=list)
    #: Summed fidelity loss across image substitutions (0 when upgrades).
    image_quality_delta: float = 0.0
    #: What the page's negotiation reads of it, for any client.
    page_models: PageModels = PageModels((), ())


def negotiate_models(sww_html: str, installed: list[str]) -> tuple[str, ModelNegotiationReport]:
    """Rewrite a page's model references for a specific client.

    Returns the (possibly rewritten) HTML and a report. When the client
    cannot generate some item's modality at all, ``report.compatible`` is
    False and the HTML is returned unmodified — the caller should fall
    back to server-side generation.
    """
    document = parse_html(sww_html)
    items = []
    for element in document.find_by_class(CSS_CLASS):
        try:
            items.append((element, GeneratedContent.from_element(element)))
        except ContentError:
            continue
    report = ModelNegotiationReport(
        page_models=PageModels(
            tuple(dict.fromkeys(item.content_type.value for _element, item in items)),
            tuple(dict.fromkeys(item.model for _element, item in items if item.model is not None)),
        )
    )
    rewrites: list[tuple] = []
    for element, item in items:
        modality = item.content_type.value
        best = _best_of(modality, installed)
        if best is None:
            report.compatible = False
            return sww_html, report
        requested = item.model
        if requested is None or requested == best or requested in installed:
            # Either no preference, already optimal, or the client has the
            # requested model: honour the page author.
            effective = requested if (requested in installed) else best
            if requested is None and best is not None:
                # Pin the negotiated model explicitly so the client's
                # media generator doesn't guess.
                item.metadata["model"] = best
                rewrites.append((element, item))
                report.rewritten += 1
                report.substitutions.append((item.name, "(default)", best))
            else:
                report.unchanged += 1
            continue
        # The client lacks the requested model: substitute its best.
        if modality == "img" and requested in IMAGE_MODELS:
            report.image_quality_delta += IMAGE_MODELS[requested].fidelity - IMAGE_MODELS[best].fidelity
        item.metadata["model"] = best
        rewrites.append((element, item))
        report.rewritten += 1
        report.substitutions.append((item.name, requested, best))

    for element, item in rewrites:
        element.set("metadata", item.metadata_json())
    if report.rewritten:
        return serialize(document), report
    return sww_html, report
