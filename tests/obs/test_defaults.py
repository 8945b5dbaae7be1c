"""The disabled-by-default contract and the logging helper.

The acceptance-critical property: constructing and exercising the full
client/server stack WITHOUT injecting sinks must leave no measurable
observability state behind — everything routes through the shared no-op
singletons.
"""

import io
import logging

import pytest

from repro import obs
from repro.obs import (
    JSON_LOG_FORMAT,
    NULL_EVENT_LOG,
    NULL_REGISTRY,
    NULL_TRACER,
    EventLog,
    logging_setup,
)
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.server import GenerativeServer, PageResource, SiteStore


class TestProcessDefaults:
    def test_null_singletons_by_default(self):
        server = GenerativeServer(SiteStore())
        assert server.registry is NULL_REGISTRY
        assert server.tracer is NULL_TRACER

    def test_null_event_log_by_default(self):
        assert GenerativeServer(SiteStore()).events is NULL_EVENT_LOG
        assert GenerativeClient().events is NULL_EVENT_LOG
        assert not NULL_EVENT_LOG.enabled


class TestNoOpEndToEnd:
    def test_full_fetch_accumulates_no_observable_state(self):
        """A stack built without sinks must leave the null singletons empty."""
        store = SiteStore()
        store.add_page(
            PageResource(
                "/p",
                '<html><body><div class="generated-content" data-name="pic"'
                ' data-type="image" data-prompt="a tree" data-width="32"'
                ' data-height="32"></div></body></html>',
            )
        )
        server = GenerativeServer(store)
        client = GenerativeClient()
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/p")
        assert result.status == 200
        assert server.registry is NULL_REGISTRY
        assert client.registry is NULL_REGISTRY
        assert pair.client.conn.registry is NULL_REGISTRY
        assert len(NULL_REGISTRY) == 0
        assert list(NULL_REGISTRY.collect()) == []
        assert NULL_TRACER.roots() == []
        assert server.events is NULL_EVENT_LOG
        assert client.events is NULL_EVENT_LOG
        assert NULL_EVENT_LOG.events() == []
        assert NULL_EVENT_LOG.open_count == 0


class TestLoggingSetup:
    def test_configures_repro_hierarchy(self):
        stream = io.StringIO()
        logger = logging_setup("debug", stream=stream)
        assert logger.name == "repro"
        logging.getLogger("repro.sww.client").debug("hello from the client")
        assert "repro.sww.client" in stream.getvalue()
        assert "hello from the client" in stream.getvalue()

    def test_idempotent_no_duplicate_handlers(self):
        stream = io.StringIO()
        logging_setup("info", stream=stream)
        logging_setup("info", stream=stream)
        logging.getLogger("repro.test").info("once")
        assert stream.getvalue().count("once") == 1

    def test_level_threshold(self):
        stream = io.StringIO()
        logging_setup("warning", stream=stream)
        logging.getLogger("repro.test").info("quiet")
        logging.getLogger("repro.test").warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            logging_setup("shout")

    def test_json_format_emits_structured_lines(self):
        import json as json_mod

        stream = io.StringIO()
        logging_setup("info", fmt=JSON_LOG_FORMAT, stream=stream)
        logging.getLogger("repro.test").warning("structured %s", "hello")
        line = json_mod.loads(stream.getvalue().strip().splitlines()[-1])
        assert line["level"] == "warning"
        assert line["logger"] == "repro.test"
        assert line["message"] == "structured hello"

    def test_json_format_joins_the_bound_wide_event(self):
        import json as json_mod

        stream = io.StringIO()
        logging_setup("info", fmt=JSON_LOG_FORMAT, stream=stream)
        events = EventLog()
        record = events.begin("server.request", trace_id="deadbeef")
        with record.bind():
            logging.getLogger("repro.test").info("inside the request")
        record.finish()
        line = json_mod.loads(stream.getvalue().strip().splitlines()[-1])
        assert line["trace_id"] == "deadbeef"
        assert line["seq"] == record.fields["seq"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            logging_setup("info", fmt="yaml")

    def test_obs_module_reexports(self):
        for name in obs.__all__:
            assert hasattr(obs, name)
