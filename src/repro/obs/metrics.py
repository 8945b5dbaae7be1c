"""Counters, gauges and fixed-bucket histograms (the SWW metrics core).

Design constraints (DESIGN.md-grade, enforced by tests):

* **deterministic** — no wall-clock timestamps; histograms use fixed,
  explicit bucket bounds so two identical runs export identical text;
* **thread-safe** — every mutation takes the instrument's lock (the
  asyncio server and the benchmark harness share registries across
  threads);
* **labeled** — instruments are keyed by ``(name, labels)``; the repo
  convention is the ``{layer, operation, model}`` label set (see
  docs/OBSERVABILITY.md), but arbitrary labels are accepted;
* **near-zero overhead when disabled** — :data:`NULL_REGISTRY` returns
  shared no-op instruments and accumulates nothing, so instrumented hot
  paths cost one attribute check when observability is off.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import weakref
from typing import Iterator, NamedTuple

#: Default histogram bucket upper bounds, in (simulated) seconds. Spans
#: HPACK micro-operations through laptop-scale page generation (~310 s).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
    300.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> "Counter":
        """A detached point-in-time copy (taken under the instrument lock)."""
        copy = Counter(self.name, self.labels)
        with self._lock:
            copy._value = self._value
        return copy


class Gauge:
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> "Gauge":
        """A detached point-in-time copy (taken under the instrument lock)."""
        copy = Gauge(self.name, self.labels)
        with self._lock:
            copy._value = self._value
        return copy


class Histogram:
    """Fixed-bucket histogram with cumulative export semantics.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists. Export follows the Prometheus convention: each ``le`` bucket
    reports the count of observations less than or equal to its bound.
    """

    kind = "histogram"

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count", "_exemplars", "_lock")

    def __init__(self, name: str, labels: LabelKey, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        #: Per-bucket exemplar: the (trace_id, value) of the latest traced
        #: observation that landed in that bucket (OpenMetrics semantics).
        self._exemplars: list[tuple[str, float] | None] = [None] * (len(self.buckets) + 1)
        self._lock = threading.Lock()

    def observe(self, value: float, trace_id: str | None = None) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if trace_id:
                self._exemplars[index] = (trace_id, value)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    @property
    def value(self) -> float:
        """For uniform registry arithmetic, a histogram's value is its sum."""
        return self._sum

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def snapshot(self) -> "Histogram":
        """A detached point-in-time copy: counts, sum, count and exemplars
        are mutually consistent because they are copied under the same lock
        :meth:`observe` mutates them under."""
        copy = Histogram(self.name, self.labels, self.buckets)
        with self._lock:
            copy._counts = list(self._counts)
            copy._sum = self._sum
            copy._count = self._count
            copy._exemplars = list(self._exemplars)
        return copy

    def exemplars(self) -> list[tuple[float, str, float]]:
        """(upper_bound, trace_id, observed_value) for buckets holding one."""
        bounds = (*self.buckets, float("inf"))
        with self._lock:
            return [
                (bound, exemplar[0], exemplar[1])
                for bound, exemplar in zip(bounds, self._exemplars)
                if exemplar is not None
            ]


Instrument = Counter | Gauge | Histogram

#: Collected sources are folded away once this many are registered (then
#: at twice the number that survived), so tracking stays amortised O(1).
_PRUNE_FLOOR = 64


class _Row(NamedTuple):
    cls: type
    name: str
    help: str
    labels: dict
    value: float
    #: A count (kept and rebased) rather than a level.
    total: bool
    key: tuple[str, LabelKey]


class Samples(list):
    """The rows a scrape-time source reports (:meth:`MetricsRegistry.source`)."""

    def counter(self, name: str, help: str, value: float, counted: bool | None = None, **labels: str) -> None:
        """A count. It exists once it has ``counted`` something (by default
        once it is above zero), as a counter incremented in place did."""
        if value > 0 if counted is None else counted:
            self.append(_Row(Counter, name, help, labels, value, True, (name, _label_key(labels))))

    def gauge(self, name: str, help: str, value: float, running: bool = False, **labels: str) -> None:
        """A level; with ``running=True`` a count that is exported as a
        gauge, kept and rebased like a counter."""
        self.append(_Row(Gauge, name, help, labels, value, running, (name, _label_key(labels))))


class MetricsRegistry:
    """Get-or-create store of labeled instruments.

    A metric *family* (one name) has a fixed kind and help text; the first
    caller wins and later mismatching kinds raise — mixing a counter and a
    gauge under one name is always a bug.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, tuple[str, str]] = {}  # name -> (kind, help)
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}
        #: Call-site spelling -> instrument, filled only under ``_lock`` with
        #: what the registration path returned (see :meth:`_get`).
        self._memo: dict[tuple, Instrument] = {}
        #: Scrape-time sources (see :meth:`source`): key -> (tally, owner
        #: ref, or None when the tally is its own owner).
        self._sources_lock = threading.Lock()
        self._sources: dict[int, tuple[object, weakref.ref | None]] = {}
        self._source_keys = itertools.count()
        self._prune_at = _PRUNE_FLOOR
        #: Per sourced ``(name, labels)``: the row that last spelled it, the
        #: totals collected sources left behind less the live totals at the
        #: last :meth:`reset`, and the totals that reset rebased.
        self._spellings: dict[tuple[str, LabelKey], _Row] = {}
        self._base: dict[tuple[str, LabelKey], float] = {}
        self._rebased: set[tuple[str, LabelKey]] = set()

    # ------------------------------------------------------------------ #
    # Instrument accessors
    # ------------------------------------------------------------------ #

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets)

    def _get(self, cls: type, name: str, help: str, labels: dict[str, str], *args) -> Instrument:
        # Hot path: a call site that repeats itself (same kind, name, help,
        # labels in the same order) is one dict hit — no sort, no lock.
        spelling = (cls, name, help, args, *labels.items())
        try:
            return self._memo[spelling]
        except KeyError:
            # Only str label values are memoised: 1, 1.0 and True are the
            # same dict key yet three different labels.
            memoise = all(type(value) is str for value in labels.values())
        except TypeError:  # an unhashable label value or bucket list
            memoise = False
        # A family a source reports is read first, so the instrument
        # handed out holds its current value.
        self._read_sources()
        return self._instrument(cls, name, help, (name, _label_key(labels)), args, spelling if memoise else None)

    def _instrument(
        self, cls: type, name: str, help: str, key: tuple[str, LabelKey], args: tuple = (), spelling=None
    ) -> Instrument:
        with self._lock:
            self._register_family(name, cls.kind, help)
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], *args)
                self._instruments[key] = instrument
            if spelling is not None:
                self._memo[spelling] = instrument
            return instrument

    def _register_family(self, name: str, kind: str, help: str) -> None:
        existing = self._families.get(name)
        if existing is None:
            self._families[name] = (kind, help)
        elif existing[0] != kind:
            raise ValueError(f"metric {name!r} already registered as {existing[0]}, not {kind}")
        elif help and not existing[1]:
            self._families[name] = (kind, help)

    def source(self, tally, owner=None) -> None:
        """Read ``tally`` whenever this registry is read.

        A component that already keeps a count or a level registers it
        here instead of copying each change into an instrument:
        :meth:`snapshot`, :meth:`collect`, :meth:`value`, :meth:`total`
        and :meth:`count` first call ``tally.samples(out, owner)`` for
        every source, sum each ``(name, labels)`` row over them and set
        the sums as the instruments' values. ``out`` is a
        :class:`Samples`: a count is a total (``out.counter``), a level is
        not (``out.gauge``). Two rules make a total read this way read as
        one pushed into a counter:

        * it never goes down when its owner is collected. The registry
          holds ``tally`` strongly and ``owner`` weakly; once ``owner`` is
          gone it reads the tally one last time with ``owner=None``, keeps
          its totals and forgets the source, whose levels drop out. Without
          ``owner`` the tally is its own owner and lives with the registry;
        * :meth:`reset` rebases every total to zero.

        Readers run on any thread, so ``samples()`` reads only what another
        thread can read safely while the owner mutates it (ints, and
        containers whose keys do not change).
        """
        record = (tally, weakref.ref(owner) if owner is not None else None)
        with self._sources_lock:
            self._sources[next(self._source_keys)] = record
            if len(self._sources) >= self._prune_at:
                self._rows()
                self._prune_at = max(_PRUNE_FLOOR, 2 * len(self._sources))

    def _rows(self) -> Samples:
        """The live sources' rows; folds the totals of every collected
        source into the base. Under ``_sources_lock``."""
        rows = Samples()
        for key, (tally, ref) in list(self._sources.items()):
            owner = tally if ref is None else ref()
            if owner is not None:
                tally.samples(rows, owner)
                continue
            del self._sources[key]
            final = Samples()
            tally.samples(final, None)
            for row in final:
                if row.total:
                    self._base[row.key] = self._base.get(row.key, 0) + row.value
                    self._spellings[row.key] = row
        return rows

    def _read_sources(self) -> None:
        if not self._sources and not self._spellings:
            return
        # One scrape at a time: a slower concurrent scrape must not write
        # back an older value over a newer one.
        with self._sources_lock:
            rows = self._rows()
            sums = dict(self._base)
            for row in rows:
                sums[row.key] = sums.get(row.key, 0) + row.value
                self._spellings[row.key] = row
            for key, row in self._spellings.items():
                value = sums.get(key, 0)
                # A total rebased to zero is not shown again until it counts.
                if row.total and not value and key in self._rebased:
                    continue
                instrument = self._instrument(row.cls, row.name, row.help, key)
                with instrument._lock:
                    instrument._value = float(value)

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def collect(self) -> Iterator[tuple[str, str, str, list[Instrument]]]:
        """Yield ``(name, kind, help, instruments)`` sorted by name/labels."""
        self._read_sources()
        with self._lock:
            families = sorted(self._families.items())
            instruments = dict(self._instruments)
        for name, (kind, help) in families:
            members = [inst for (n, _), inst in sorted(instruments.items()) if n == name]
            yield name, kind, help, members

    def snapshot(self) -> "MetricsRegistry":
        """A detached point-in-time copy of the whole registry.

        The family/instrument maps are copied under the registry lock and
        every instrument is copied under its own lock, so a snapshot taken
        while writer tasks and executor threads mutate instruments never
        shows a torn histogram (``+Inf`` cumulative always equals
        ``count``). Exporters and the time-series sampler read snapshots,
        never live instruments.
        """
        self._read_sources()
        snap = MetricsRegistry()
        with self._lock:
            snap._families = dict(self._families)
            items = list(self._instruments.items())
        snap._instruments = {key: inst.snapshot() for key, inst in items}
        return snap

    def value(self, name: str, **labels: str) -> float:
        """One instrument's value (histograms report their sum); 0 if absent."""
        self._read_sources()
        instrument = self._instruments.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def total(self, name: str) -> float:
        """Sum a family's value across every label combination."""
        self._read_sources()
        return sum(inst.value for (n, _), inst in self._instruments.items() if n == name)

    def count(self, name: str) -> int:
        """Total histogram observation count across a family's label sets."""
        self._read_sources()
        return sum(
            inst.count
            for (n, _), inst in self._instruments.items()
            if n == name and isinstance(inst, Histogram)
        )

    def __len__(self) -> int:
        return len(self._instruments)

    def reset(self) -> None:
        with self._sources_lock:
            rows = self._rows()
            # Levels stay; a total is spelled again once a source reports it.
            self._spellings = {key: row for key, row in self._spellings.items() if not row.total}
            self._base = {}
            for row in rows:
                if row.total:
                    self._base[row.key] = self._base.get(row.key, 0) - row.value
                    self._spellings[row.key] = row
            self._rebased = set(self._base)
        with self._lock:
            self._families.clear()
            self._instruments.clear()
            self._memo.clear()


class _NullInstrument:
    """Shared do-nothing instrument handed out by :class:`NullRegistry`."""

    kind = "null"
    name = ""
    labels: LabelKey = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, trace_id: str | None = None) -> None:
        pass

    def cumulative_counts(self) -> list[tuple[float, int]]:
        return []

    def exemplars(self) -> list[tuple[float, str, float]]:
        return []

    def snapshot(self) -> "_NullInstrument":
        return self


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The default registry: accepts every call, accumulates nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "", **labels: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def source(self, tally, owner=None) -> None:
        pass


#: Process-wide no-op singleton; safe to share between every component.
NULL_REGISTRY = NullRegistry()
