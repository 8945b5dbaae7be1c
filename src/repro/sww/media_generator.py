"""The media generator (paper §4.1).

    "The media generator has two roles: parsing the passed metadata and
    invoking content generation using the parsed information. The media
    generator has two generation subroutines, one to generate text and
    the other to generate images."

It receives :class:`~repro.sww.content.GeneratedContent` items from the
HTML parser alongside a preloaded generation pipeline, dispatches to the
image or text subroutine, and returns the produced artifact with its
simulated cost. Text models are reached through the Ollama-shaped API
(mirroring the prototype's ``requests``-based access), images through the
pipeline's diffusion entry point (the Diffusers stand-in).

With a :class:`~repro.gencache.GenerationCache` attached, results are
memoised under content-addressed keys: a hit returns the identical bytes
at lookup cost instead of step cost, and the avoided time/energy accrues
to the cache's "saved" counters (never to the cold numbers — see
docs/PERFORMANCE.md for the warm-vs-cold reporting rules). Accounting is
lock-guarded so a server may materialise several pages at once, one per
request thread.

Generation is split in two so a page can pipeline: :meth:`~MediaGenerator.begin`
starts the item and never waits for an image — solo, it runs the kernel and
hands the pixels to the shared PNG encode pool
(:func:`repro.genai.image.encode_png_async`); with a batching engine it
admits the image to the engine's window, so one thread fills a batch.
:meth:`~MediaGenerator.complete` waits for what is outstanding.
``generate`` is the two back to back.
With a cache attached it is also the process's one flight table, so
every item lands in exactly one ledger outcome: hit, miss or coalesced.

An image's PNG effort follows where its bytes go, and :meth:`MediaGenerator._encode`
is the one place it is chosen. Bytes that are sent or stored — a server's
response body, anything inserted into a cache — are ``encode_png(pixels)``
at ``DEFLATE_LEVEL`` on the shared pool. Bytes the caller keeps in-process
(``begin(item, local=True)``: a client's own page, with no cache to keep
them) are written stored (:func:`repro.media.png.encode_png_stored`),
inline on the calling thread: deflating them would change neither what the
user sees nor what the network carries.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass

from repro.devices.profiles import DeviceProfile
from repro.gencache import CachedGeneration, GenerationCache, GenerationKey, key_for_item
from repro.genai.image import ImageResult, encode_png_async
from repro.genai.ollama_api import OllamaClient, OllamaEndpoint
from repro.genai.pipeline import GenerationPipeline
from repro.genai.registry import get_image_model, get_text_model
from repro.media.png import encode_png_stored
from repro.obs.events import add_current, annotate_current
from repro.sww.content import ContentType, GeneratedContent


@dataclass
class GenerationOutput:
    """One generated artifact plus its simulated cost."""

    item: GeneratedContent
    #: PNG bytes for images; UTF-8 text bytes for text.
    payload: bytes
    #: For text items, the expanded string; empty for images.
    text: str
    sim_time_s: float
    energy_wh: float
    #: Suggested asset path for images (what the rewritten div points at).
    asset_path: str = ""
    #: True when the payload came out of the generation cache.
    cache_hit: bool = False
    #: True when this output rode another item's in-flight generation.
    coalesced: bool = False


@dataclass
class PendingGeneration:
    """A started item; an image's kernel or PNG may still be in flight."""

    output: GenerationOutput
    #: The in-flight encode whose bytes become ``output.payload``; None
    #: for text, cache hits and images whose bytes have been collected.
    encode: Future | None = None
    #: The batching engine's future of the image's kernel result, until
    #: :meth:`MediaGenerator.complete` collects it; None on the solo path.
    kernel: Future | None = None
    #: Where ``complete`` memoises an engine-backed result (None: no cache).
    key: GenerationKey | None = None
    #: The flight for ``key`` this item leads; ``_book`` resolves it.
    lead: Future | None = None
    #: The flight this item joined instead; ``complete`` books it.
    joined: Future | None = None
    #: True when the image's bytes stay in this process and no cache keeps
    #: them: its PNG is written stored, inline (see ``MediaGenerator._encode``).
    local: bool = False

    def settle(self, error: BaseException) -> None:
        """Wait until nothing this item started still runs, then fail its unlanded lead; never raises."""
        if self.kernel is not None and self.kernel.exception() is None:  # blocks until done
            if not self.local:
                self.encode = self.kernel.result().png_future()
        if self.encode is not None:
            wait([self.encode])
        if self.lead is not None and not self.lead.done():
            self.lead.set_exception(error)


class MediaGenerator:
    """Dispatches generated-content items to the generation subroutines."""

    def __init__(
        self,
        pipeline: GenerationPipeline,
        cache: GenerationCache | None = None,
        engine=None,
    ) -> None:
        self.pipeline = pipeline
        #: Optional :class:`~repro.batching.BatchingEngine`: image items
        #: are admitted to its micro-batching window instead of running
        #: the solo pipeline, amortising step cost across concurrent
        #: requests. Bytes are identical either way; text and §2.2
        #: upscale items always take their dedicated paths (text rides
        #: the Ollama API, upscale inputs are not batchable by key).
        self.engine = engine
        # The prototype talks to Ollama over its local API: an endpoint
        # running on the same simulated device as the pipeline, reporting
        # into the pipeline's observability sinks.
        self.ollama = OllamaClient(
            OllamaEndpoint(pipeline.device, registry=pipeline.registry, tracer=pipeline.tracer)
        )
        #: Optional content-addressed memoisation of generation results.
        self.cache = cache
        self.generated_count = 0
        self.cache_hit_count = 0
        self.total_time_s = 0.0
        self.total_energy_wh = 0.0
        #: Fetched small originals for §2.2 upscale items (path → PNG
        #: bytes); the client provides these before page processing.
        self.asset_sources: dict[str, bytes] = {}
        self._lock = threading.Lock()
        #: Key → the future of its generation, while one is in flight here.
        self._flights: dict[GenerationKey, Future] = {}
        # The Ollama endpoint reports energy via a last-call attribute, so
        # the text round-trip and its energy read must not interleave.
        self._text_lock = threading.Lock()

    def provide_assets(self, assets: dict[str, bytes]) -> None:
        """Register fetched bytes that upscale items may reference."""
        self.asset_sources.update(assets)

    @property
    def device(self) -> DeviceProfile:
        return self.pipeline.device

    def cache_key(self, item: GeneratedContent) -> GenerationKey | None:
        """The item's content-addressed identity; None without a cache, or for an upscale item."""
        if self.cache is None:
            return None
        return key_for_item(item, self.pipeline.image_model.name, self.pipeline.text_model.name)

    def generate(self, item: GeneratedContent) -> GenerationOutput:
        """Parse the item's metadata and invoke the right subroutine."""
        return self.complete(self.begin(item))

    def begin(self, item: GeneratedContent, local: bool = False) -> PendingGeneration:
        """Start the item; an image's PNG encode is left in flight.

        Solo, everything simulated — RNG draws, seconds, energy, counters,
        spans — happens here, so callers that ``begin`` items in document
        order get the serial path's numbers whenever they ``complete``.
        With an engine attached an image is only admitted here; its cost
        is known, and booked, when ``complete`` collects the batch.

        With a cache attached, an item whose key is in flight here joins
        that flight; otherwise it leads the key and consults the cache
        (outside the lock: a tier lookup may park).

        ``local`` is the caller's word that the item's bytes stay in this
        process; an image nothing will insert into a cache is then written
        stored, not deflated.
        """
        key = self.cache_key(item)
        if key is None:
            return self._start(item, local=local)
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return PendingGeneration(GenerationOutput(item, b"", "", 0.0, 0.0), joined=flight)
            self._flights[key] = flight = Future()
        flight.add_done_callback(lambda _flight: self._land(key))
        try:
            with self.pipeline.tracer.span("gencache.get", key=key.digest) as span:
                record = self.cache.lookup(key)
                span.annotate(outcome="hit" if record is not None else "miss")
            if record is None:
                annotate_current(gencache_outcome="miss")
                return self._start(item, key, flight, local)
            flight.set_result(record)
            return PendingGeneration(self._reuse(item, record, record.coalesced))
        except BaseException as exc:
            if not flight.done():
                flight.set_exception(exc)
            raise

    def _start(
        self, item: GeneratedContent, key: GenerationKey | None = None, lead=None, local: bool = False
    ) -> PendingGeneration:
        if item.content_type == ContentType.IMAGE:
            # What a cache keeps stays deflated: it may be shared with a
            # server, which sends it on.
            pending = self._generate_image(item, local and key is None)
        else:
            pending = PendingGeneration(self._generate_text(item))
        pending.key, pending.lead = key, lead
        if pending.kernel is None:
            if key is not None:
                # The insert reads the bytes, so with a cache attached each
                # encode is awaited before the next item's lookup: hit, miss,
                # LRU and eviction order are the serial path's.
                self.complete(pending)
            self._book(pending)
        return pending

    def complete(self, pending: PendingGeneration) -> GenerationOutput:
        """Wait for what the item still has in flight; re-raises its (or its leader's) error."""
        if pending.joined is not None:
            record, pending.joined = pending.joined.result(), None
            self.cache.record_coalesced(record.sim_time_s, record.energy_wh)
            pending.output = self._reuse(pending.output.item, record, coalesced=True)
            return pending.output
        output = pending.output
        kernel = pending.kernel
        try:
            if kernel is not None:
                result = kernel.result()
                pending.kernel = None
                # The engine stamped the batch this generation rode onto the
                # future before resolving it; surface it on the request event.
                batch_id = getattr(kernel, "batch_id", None)
                if batch_id is not None:
                    annotate_current(batch_id=batch_id, batch_size=getattr(kernel, "batch_size", 1))
                output.sim_time_s, output.energy_wh = result.sim_time_s, result.energy_wh
                self._encode(pending, result)
            if pending.encode is not None:
                encode, pending.encode = pending.encode, None
                output.payload = encode.result()
        except BaseException as exc:
            pending.settle(exc)  # its joiners raise it too
            raise
        if kernel is not None:
            self._book(pending)
        return output

    def _book(self, pending: PendingGeneration) -> None:
        """Memoise (when a cache is attached) and account a generated item."""
        output = pending.output
        if pending.key is not None:
            self.cache.insert(
                pending.key,
                payload=output.payload,
                text=output.text,
                sim_time_s=output.sim_time_s,
                energy_wh=output.energy_wh,
            )
            # Stored or not, the joiners get the generation.
            record = CachedGeneration(pending.key, output.payload, output.text, output.sim_time_s, output.energy_wh)
            pending.lead.set_result(record)
        self._account(output)

    def _land(self, key: GenerationKey) -> None:
        with self._lock:
            del self._flights[key]

    def _reuse(self, item: GeneratedContent, record: CachedGeneration, coalesced: bool) -> GenerationOutput:
        """Book an item answered at lookup cost: a hit, or a duplicate of a generation in flight."""
        if coalesced:
            annotate_current(gencache_outcome="coalesced")
            add_current(gencache_coalesced=1)
        else:
            annotate_current(gencache_outcome="hit")
            add_current(gencache_hits=1)
        output = GenerationOutput(
            item=item,
            payload=record.payload,
            text=record.text,
            sim_time_s=self.cache.hit_time_s,
            energy_wh=0.0,
            asset_path=self._asset_path(item),
            cache_hit=True,
            coalesced=coalesced,
        )
        self._account(output, hit=True)
        return output

    def _account(self, output: GenerationOutput, hit: bool = False) -> None:
        with self._lock:
            self.generated_count += 1
            if hit:
                self.cache_hit_count += 1
            self.total_time_s += output.sim_time_s
            self.total_energy_wh += output.energy_wh

    @staticmethod
    def _asset_path(item: GeneratedContent) -> str:
        return f"/generated/{item.name}.png" if item.content_type == ContentType.IMAGE else ""

    @staticmethod
    def _encode(pending: PendingGeneration, result) -> None:
        """Write or start the image's PNG at the effort its destination calls for.

        Sent or stored bytes are ``encode_png(pixels)``, started on the
        shared pool (an engine result's own memoised encode, which its
        kernel's done-callback may have started already); bytes that stay
        in-process are written stored, inline, since that is cheaper than
        a hop through the pool.
        """
        if pending.local:
            pending.output.payload = encode_png_stored(result.pixels)
        elif isinstance(result, ImageResult):
            pending.encode = result.png_future()
        else:
            pending.encode = encode_png_async(result.pixels)

    def _generate_image(self, item: GeneratedContent, local: bool) -> PendingGeneration:
        if item.upscale_src is not None:
            return self._upscale_image(item, local)
        model = get_image_model(item.model) if item.model else self.pipeline.image_model
        steps, seed = item.metadata.get("steps"), item.metadata.get("seed")
        annotate_current(model=model.name, steps=steps or model.default_steps)
        if self.engine is None:
            result = self.pipeline.generate_image(
                item.prompt, item.width, item.height, steps, seed, model=model
            )
            pending = PendingGeneration(self._image_output(item, result), local=local)
            self._encode(pending, result)
            return pending
        # Micro-batched path: admit to the engine's window and return. The
        # pipeline still accounts the invocation (preload/reload semantics
        # are a device property, not a batching one).
        self.pipeline.note_invocation()
        kernel = self.engine.submit_image(model, item.prompt, item.width, item.height, steps, seed)
        if not local:
            # Sent bytes are encoded while the engine runs its next batch,
            # as the solo path encodes while the next kernel runs.
            kernel.add_done_callback(_start_encode)
        return PendingGeneration(self._image_output(item), kernel=kernel, local=local)

    def _image_output(self, item: GeneratedContent, result=None) -> GenerationOutput:
        """An image output whose payload (and, without ``result``, cost) arrives later."""
        return GenerationOutput(
            item=item,
            payload=b"",
            text="",
            sim_time_s=result.sim_time_s if result is not None else 0.0,
            energy_wh=result.energy_wh if result is not None else 0.0,
            asset_path=self._asset_path(item),
        )

    def _upscale_image(self, item: GeneratedContent, local: bool) -> PendingGeneration:
        """§2.2 upscale path: small stored original → large local image."""
        from repro.genai.upscale import ONE_STEP_SR, upscale_image
        from repro.media.png import decode_png

        source = self.asset_sources.get(item.upscale_src)
        if source is None:
            raise KeyError(
                f"upscale item {item.name!r} references unfetched asset {item.upscale_src!r}"
            )
        pixels = decode_png(source)
        result = upscale_image(ONE_STEP_SR, self.device, pixels, item.scale)
        pending = PendingGeneration(self._image_output(item, result), local=local)
        self._encode(pending, result)
        return pending

    def _generate_text(self, item: GeneratedContent) -> GenerationOutput:
        model_name = item.model or self.pipeline.text_model.name
        get_text_model(model_name)  # validate before the API round-trip
        annotate_current(model=model_name)
        prompt = f"{item.prompt}\nExpand the points above into {item.words} words."
        with self._text_lock:
            response = self.ollama.post_generate(
                model=model_name,
                prompt=prompt,
                options={"topic": item.topic},
            )
            text = response["response"]
            seconds = response["total_duration"] / 1e9
            energy = self.ollama.endpoint.last_energy_wh
        return GenerationOutput(
            item=item,
            payload=text.encode("utf-8"),
            text=text,
            sim_time_s=seconds,
            energy_wh=energy,
        )


def _start_encode(kernel: Future) -> None:
    """Start a collected engine result's PNG encode on the shared pool."""
    if kernel.exception() is None:
        kernel.result().png_future()
