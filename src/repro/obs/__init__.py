"""repro.obs — metrics, tracing and logging for the SWW reproduction.

The paper's evaluation is a measurement story; this package makes those
measurements first-class instead of ad hoc per benchmark:

* :class:`MetricsRegistry` — thread-safe counters / gauges / fixed-bucket
  histograms, labeled by the ``{layer, operation, model}`` convention;
* :class:`Tracer` — nested ``perf_counter`` spans with a ring buffer;
* exporters — Prometheus text, JSON-lines, and terminal renderers;
* :func:`logging_setup` — the unified ``repro.*`` logger hierarchy.

Everything defaults to the no-op implementations (:data:`NULL_REGISTRY`,
:data:`NULL_TRACER`), so instrumented hot paths cost one attribute check
when observability is off. Components take ``registry=`` / ``tracer=``
/ ``events=`` constructor arguments; when omitted they hold the no-op
singletons.
"""

from __future__ import annotations

import json
import logging
import sys

from repro.obs.catalog import (
    SUBSYSTEMS,
    UNITS,
    MetricSite,
    check_documented,
    check_event_field,
    check_name,
    lint,
    lint_event_fields,
    scan_sources,
)
from repro.obs.events import (
    EVENT_FIELDS,
    EVENTS_FORMAT,
    NULL_EVENT_LOG,
    EventLog,
    NullEventLog,
    WideEvent,
    add_current,
    annotate_current,
    current_event,
    events_to_columnar,
    events_to_jsonl,
)
from repro.obs.export import (
    METRICS_DUMP_FORMAT,
    dump_registry,
    load_registry,
    merge_registry_dumps,
    render_metrics_table,
    render_span_tree,
    spans_to_jsonl,
    to_chrome_trace,
    to_jsonl,
    to_openmetrics,
    to_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.propagation import (
    TRACEPARENT_HEADER,
    IdSource,
    TraceContext,
    encode_traceparent,
    format_traceparent,
    parse_traceparent,
)
from repro.obs.profiler import Profile, WallClockProfiler
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    DEFAULT_WINDOWS,
    BurnWindow,
    SLObjective,
    SLOTracker,
)
from repro.obs.timeseries import (
    SNAPSHOT_FORMAT,
    TimeSeriesSampler,
    family_of,
    merge_snapshots,
    quantile_from_cumulative,
    series_key,
    snapshot_last,
    snapshot_quantile,
    snapshot_rate,
)
from repro.obs.recorder import (
    BUNDLE_FORMAT,
    DEFAULT_TRIGGERS,
    FlightRecorder,
    bundle_signature,
)
from repro.obs.tracing import (
    KEEP_BASELINE,
    KEEP_ERROR,
    KEEP_SLOW,
    NULL_TRACER,
    NullTracer,
    Span,
    TailSampler,
    Tracer,
    stitch_spans,
)

_HANDLER_MARK = "_repro_obs_handler"
DEFAULT_LOG_FORMAT = "%(levelname)-7s %(name)s: %(message)s"
#: Sentinel for :func:`logging_setup`: one JSON object per line.
JSON_LOG_FORMAT = "json"


class _JsonLogFormatter(logging.Formatter):
    """One JSON object per line, field names shared with wide events.

    ``level``/``logger``/``message`` are the log-specific keys; when the
    record fires inside a bound wide event the line also carries that
    event's ``trace_id`` and ``seq``, so log lines join against the
    event stream (and ``error`` carries the exception class, same key as
    the wide-event schema).
    """

    def format(self, record: logging.LogRecord) -> str:
        doc: dict = {
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info and record.exc_info[0] is not None:
            doc["error"] = record.exc_info[0].__name__
        event = current_event()
        if event is not None and event.fields:
            if "trace_id" in event.fields:
                doc["trace_id"] = event.fields["trace_id"]
            if "seq" in event.fields:
                doc["seq"] = event.fields["seq"]
        return json.dumps(doc, sort_keys=True, default=str)


def logging_setup(
    level: int | str = logging.INFO,
    fmt: str = DEFAULT_LOG_FORMAT,
    stream=None,
) -> logging.Logger:
    """Configure the unified ``repro`` logger hierarchy.

    Idempotent: repeat calls replace the handler this function installed
    rather than stacking duplicates. Module loggers obtained with
    ``logging.getLogger("repro.<module>")`` inherit the level/handler.
    Pass ``fmt="json"`` for structured output (one JSON object per
    line); any other ``fmt`` is a classic percent-style format string.
    """
    logger = logging.getLogger("repro")
    if isinstance(level, str):
        level = logging.getLevelName(level.upper())
        if not isinstance(level, int):
            raise ValueError(f"unknown log level {level!r}")
    logger.setLevel(level)
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    if fmt == JSON_LOG_FORMAT:
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter(fmt))
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    logger.propagate = False
    return logger


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "DEFAULT_BUCKETS",
    "DEFAULT_LOG_FORMAT",
    "JSON_LOG_FORMAT",
    "logging_setup",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "WideEvent",
    "EVENT_FIELDS",
    "EVENTS_FORMAT",
    "add_current",
    "annotate_current",
    "current_event",
    "events_to_jsonl",
    "events_to_columnar",
    "TailSampler",
    "KEEP_ERROR",
    "KEEP_SLOW",
    "KEEP_BASELINE",
    "FlightRecorder",
    "DEFAULT_TRIGGERS",
    "BUNDLE_FORMAT",
    "bundle_signature",
    "to_prometheus",
    "to_openmetrics",
    "to_jsonl",
    "to_chrome_trace",
    "METRICS_DUMP_FORMAT",
    "dump_registry",
    "load_registry",
    "merge_registry_dumps",
    "render_metrics_table",
    "render_span_tree",
    "spans_to_jsonl",
    "stitch_spans",
    "IdSource",
    "TraceContext",
    "TRACEPARENT_HEADER",
    "format_traceparent",
    "encode_traceparent",
    "parse_traceparent",
    "TimeSeriesSampler",
    "SNAPSHOT_FORMAT",
    "series_key",
    "family_of",
    "merge_snapshots",
    "snapshot_last",
    "snapshot_rate",
    "snapshot_quantile",
    "quantile_from_cumulative",
    "Profile",
    "WallClockProfiler",
    "SLObjective",
    "SLOTracker",
    "BurnWindow",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_WINDOWS",
    "MetricSite",
    "SUBSYSTEMS",
    "UNITS",
    "scan_sources",
    "check_name",
    "check_documented",
    "check_event_field",
    "lint",
    "lint_event_fields",
]
