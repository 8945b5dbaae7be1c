"""Tests for the sww command-line interface."""

import asyncio
import gc
import io
import sys
import warnings

import pytest

from repro.cli import PAGES, build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        choices = actions["command"].choices
        assert set(choices) == {
            "serve", "fetch", "convert", "demo", "report", "stats", "trace", "top",
            "incidents", "fleet",
        }

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.page == "travel-blog" and args.device == "laptop"
        assert args.trace is False

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.page == "travel-blog" and args.format == "prom"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.page == "travel-blog" and args.seed == 0
        assert args.sample_rate == 1.0 and args.cdn is False and args.export is None

    def test_log_level_flag(self):
        args = build_parser().parse_args(["--log-level", "debug", "demo"])
        assert args.log_level == "debug"

    def test_log_format_flag(self):
        assert build_parser().parse_args(["demo"]).log_format == "text"
        args = build_parser().parse_args(["--log-format", "json", "demo"])
        assert args.log_format == "json"

    def test_incidents_defaults(self):
        args = build_parser().parse_args(["incidents", "list"])
        assert args.action == "list" and args.incident is None
        assert args.port == 8443 and args.from_artifacts is None
        args = build_parser().parse_args(["incidents", "show", "incident-1"])
        assert args.incident == "incident-1"

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestDemo:
    def test_demo_runs_each_page(self, capsys):
        for page in PAGES:
            code = main(["demo", "--page", page, "--device", "workstation"])
            assert code == 0
            out = capsys.readouterr().out
            assert "SWW wire bytes" in out

    def test_demo_render_flag(self, capsys):
        assert main(["demo", "--page", "travel-blog", "--render"]) == 0
        out = capsys.readouterr().out
        assert "Walking the Ridgeline" in out

    def test_demo_unknown_page_exits(self):
        with pytest.raises(SystemExit):
            main(["demo", "--page", "nope"])

    def test_demo_trace_prints_span_tree(self, capsys):
        assert main(["demo", "--page", "news", "--device", "workstation", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "client.connect" in out
        assert "client.negotiate" in out
        assert "client.fetch" in out
        assert "client.request" in out
        assert "  server.request" in out  # server span nested under the client's
        assert "client.generate" in out


class TestStats:
    def test_prometheus_output_is_valid(self, capsys):
        assert main(["stats", "--page", "news", "--device", "workstation"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sww_requests_total counter" in out
        assert "# TYPE genai_generation_seconds histogram" in out
        # Every sample line must be NAME{LABELS} VALUE with parseable value.
        for line in out.splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels, line
            float(value.replace("+Inf", "inf"))
        # The flow covers negotiation, generation, fallback and framing.
        assert 'sww_negotiation_total{layer="http2",operation="accepted"}' in out
        assert 'sww_fallbacks_total{layer="sww",operation="negotiation"}' in out
        assert 'http2_frames_sent_total{layer="http2",operation="SETTINGS"}' in out

    def test_jsonl_output(self, capsys):
        import json

        assert main(["stats", "--page", "news", "--device", "workstation", "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert any(r["name"] == "sww_requests_total" for r in records)

    def test_wire_bytes_are_the_same_every_run(self, capsys):
        """The client's trace ids are seeded, so its ``traceparent`` (and
        that header's HPACK length) is the same on every run."""
        import json

        readings = []
        for _ in range(2):
            assert main(["stats", "--page", "wikimedia", "--format", "jsonl"]) == 0
            records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
            readings.append([r for r in records if r["name"] == "http2_wire_bytes_total"])
        assert readings[0] and readings[0] == readings[1]

    def test_table_output(self, capsys):
        assert main(["stats", "--page", "news", "--device", "workstation", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("metric")

    def test_openmetrics_output(self, capsys):
        args = ["stats", "--page", "news", "--device", "workstation", "--format", "openmetrics"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("# EOF")
        assert "# TYPE genai_generation_seconds histogram" in out


class TestTrace:
    def test_trace_prints_one_stitched_trace_per_fetch(self, capsys):
        assert main(["trace", "--page", "news", "--device", "workstation"]) == 0
        out = capsys.readouterr().out
        # Two fetches (capable + naive) -> two stitched traces, each with
        # the server's spans indented under the client's fetch span.
        assert out.count("trace ") >= 2
        assert "client.fetch" in out
        assert "  server.request" in out
        assert "server.materialise" in out  # the naive fetch's server-side work
        assert "exemplars (histogram bucket -> trace):" in out

    def test_trace_ids_deterministic_per_seed(self, capsys):
        def trace_ids(out: str) -> list[str]:
            return [line.split()[1] for line in out.splitlines() if line.startswith("trace ")]

        assert main(["trace", "--page", "news", "--device", "workstation", "--seed", "7"]) == 0
        first = trace_ids(capsys.readouterr().out)
        assert main(["trace", "--page", "news", "--device", "workstation", "--seed", "7"]) == 0
        assert trace_ids(capsys.readouterr().out) == first
        assert main(["trace", "--page", "news", "--device", "workstation", "--seed", "8"]) == 0
        assert trace_ids(capsys.readouterr().out) != first

    def test_trace_export_writes_loadable_chrome_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.json"
        args = ["trace", "--page", "news", "--device", "workstation", "--export", str(target)]
        assert main(args) == 0
        doc = json.loads(target.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} >= {"client.fetch", "server.request"}
        tracks = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert {"client", "server"} <= tracks

    def test_trace_cdn_adds_edge_and_origin_tracks(self, capsys):
        assert main(["trace", "--page", "news", "--device", "workstation", "--cdn"]) == 0
        out = capsys.readouterr().out
        assert "cdn.serve" in out
        assert "origin.fetch" in out

    def test_trace_unsampled_records_nothing(self, capsys):
        args = ["trace", "--page", "news", "--device", "workstation", "--sample-rate", "0"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "client.fetch" not in out


class TestConvert:
    HTML = (
        '<body><img src="/a.jpg" alt="rolling green hills under morning fog" '
        'width="256" height="256"></body>'
    )

    def test_convert_stdin_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.HTML))
        assert main(["convert", "-", "-", "--topic", "landscape"]) == 0
        captured = capsys.readouterr()
        assert "generated-content" in captured.out
        assert "converted 1 images" in captured.err

    def test_convert_files(self, tmp_path, capsys):
        src = tmp_path / "in.html"
        dst = tmp_path / "out.html"
        src.write_text(self.HTML)
        assert main(["convert", str(src), str(dst)]) == 0
        assert "generated-content" in dst.read_text()

    def test_convert_closes_its_input(self, tmp_path, capsys):
        src = tmp_path / "in.html"
        src.write_text(self.HTML)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["convert", str(src), str(tmp_path / "out.html")]) == 0
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_convert_news_template_keeps_unique(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.HTML))
        assert main(["convert", "-", "-", "--template", "news"]) == 0
        captured = capsys.readouterr()
        assert "generated-content" not in captured.out
        assert "1 kept unique" in captured.err


class TestServeFetch:
    def test_serve_and_fetch_over_tcp(self, capsys):
        """Drive the two network subcommands against each other."""
        from repro.cli import _build_store
        from repro.devices import get_device
        from repro.sww.server import GenerativeServer

        async def scenario():
            store = _build_store(["news"])
            server = GenerativeServer(store, device=get_device("workstation"))
            listener = await server.serve_forever("127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                # Run the fetch command's machinery directly (main would
                # call asyncio.run inside a running loop).
                from repro.sww.client import GenerativeClient

                client = GenerativeClient(device=get_device("workstation"))
                return await client.fetch_tcp("127.0.0.1", port, "/news/transit-corridor")
            finally:
                listener.close()
                await listener.wait_closed()

        result = asyncio.run(scenario())
        assert result.status == 200 and result.sww_mode

    def test_fetch_command_against_live_server(self, capsys):
        """The actual `sww fetch` entry point, against a live listener."""
        import threading

        from repro.cli import _build_store
        from repro.sww.server import GenerativeServer

        ready = {}
        stop = threading.Event()

        def serve():
            async def run():
                store = _build_store(["news"])
                server = GenerativeServer(store)
                listener = await server.serve_forever("127.0.0.1", 0)
                ready["port"] = listener.sockets[0].getsockname()[1]
                while not stop.is_set():
                    await asyncio.sleep(0.02)
                listener.close()
                await listener.wait_closed()

            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        for _ in range(200):
            if "port" in ready:
                break
            import time

            time.sleep(0.01)
        try:
            code = main(
                [
                    "fetch",
                    "/news/transit-corridor",
                    "--port",
                    str(ready["port"]),
                    "--device",
                    "workstation",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "SWW prompts" in out
        finally:
            stop.set()
            thread.join(timeout=5)


class TestServeWiring:
    """`serve` builds one telemetry set per process, and everything that
    reports — server, pipeline, batching engine, gencache — reports into it."""

    ARGV = ["serve", "--pages", "news", "--max-batch", "4"]

    @staticmethod
    def _assert_one_sink(server, sampler):
        try:
            assert server.engine is not None
            for part in (server.pipeline, server.engine):
                # The engine's batching.* spans reach the server's tail
                # sampler (and so /debug/* and incident bundles) only if
                # it holds the server's tracer, not the global no-op.
                assert part.tracer is server.tracer
                assert part.registry is server.registry
            assert server.gencache is not None
            assert server.events.enabled and server.registry.enabled
            assert sampler.registry is server.registry
        finally:
            server.engine.close()

    def test_single_process_serve_shares_one_tracer_and_registry(self):
        from repro.cli import _build_server, _build_store
        from repro.devices import get_device

        args = build_parser().parse_args(self.ARGV)
        server, sampler = _build_server(
            args, _build_store(args.pages), get_device(args.device)
        )
        assert server.gencache.registry is server.registry
        self._assert_one_sink(server, sampler)

    def test_worker_factory_shares_one_tracer_and_registry(self, monkeypatch):
        import os

        import repro.serving
        from repro.cli import cmd_serve
        from repro.serving import RemoteGenerationCache

        built = {}

        class CapturingArbiter:
            def __init__(self, config, runtime_factory):
                built.update(config=config, factory=runtime_factory)

            def run(self):
                return 0

        monkeypatch.setattr(repro.serving, "Arbiter", CapturingArbiter)
        assert cmd_serve(build_parser().parse_args(self.ARGV + ["--workers", "2"])) == 0
        assert built["config"].workers == 2
        # The facade connects lazily: no tier needs to listen here. It is
        # built on the loop that carries its exchanges, as in a worker.

        async def in_a_worker():
            return built["factory"](("127.0.0.1", 1))

        server, sampler = asyncio.run(in_a_worker())
        assert isinstance(server.gencache, RemoteGenerationCache)
        assert server.events.worker_id == os.getpid()
        self._assert_one_sink(server, sampler)


class TestTopAndStatsWatch:
    @pytest.fixture
    def telemetry_port(self):
        """A live admin plane on a background thread; yields its port."""
        import threading
        import time

        from repro.cli import _build_store
        from repro.obs import MetricsRegistry, SLOTracker, TimeSeriesSampler
        from repro.serving.h2util import MiniH2Server
        from repro.sww.admin import AdminPlane
        from repro.sww.server import GenerativeServer

        ready = {}
        stop = threading.Event()

        def serve():
            async def run():
                registry = MetricsRegistry()
                sampler = TimeSeriesSampler(registry, interval_s=0.05)
                server = GenerativeServer(_build_store(["news"]), registry=registry)
                plane = AdminPlane(
                    registry, sampler=sampler, slo=SLOTracker(registry), server=server
                )
                listener = await MiniH2Server(plane.handle, registry=registry).serve()
                sampling = asyncio.create_task(sampler.run())
                ready["port"] = listener.sockets[0].getsockname()[1]
                while not stop.is_set():
                    await asyncio.sleep(0.02)
                sampling.cancel()
                listener.close()
                await listener.wait_closed()

            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        for _ in range(300):
            if "port" in ready:
                break
            time.sleep(0.01)
        assert "port" in ready, "telemetry server failed to start"
        yield ready["port"]
        stop.set()
        thread.join(timeout=5)

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.port == 8443 and args.iterations == 0
        assert args.interval == pytest.approx(2.0)

    def test_top_renders_one_frame(self, telemetry_port, capsys):
        import time

        time.sleep(0.2)  # let the sampler tick a few times
        code = main(
            [
                "top",
                "--port", str(telemetry_port),
                "--iterations", "1",
                "--interval", "0.1",
                "--window", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sww top — tick" in out
        assert "status ok" in out
        assert "slo" in out

    def test_top_unreachable_server_fails_cleanly(self, capsys):
        code = main(["top", "--port", "1", "--iterations", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_stats_watch_polls_live_exposition(self, telemetry_port, capsys):
        code = main(
            [
                "stats",
                "--watch",
                "--port", str(telemetry_port),
                "--iterations", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# EOF" in out
        assert "obs_timeseries_ticks_total" in out

    def test_stats_watch_unreachable_server_fails_cleanly(self, capsys):
        code = main(["stats", "--watch", "--port", "1", "--iterations", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestWatchRetry:
    """Transient-outage tolerance of the `top`/`stats --watch` loops."""

    def test_first_failure_is_fatal(self, capsys):
        from repro.cli import _watch_poll, _WatchGaveUp

        async def poll():
            raise ConnectionRefusedError("refused")

        with pytest.raises(_WatchGaveUp):
            asyncio.run(_watch_poll(poll, "127.0.0.1", 1, ever_connected=False))
        assert "cannot reach 127.0.0.1:1" in capsys.readouterr().err

    def test_transient_failure_retries_after_connecting(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "WATCH_BACKOFF_S", 0.0)
        calls = {"n": 0}

        async def poll():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionResetError("reset mid-watch")
            return {"ok": True}

        result = asyncio.run(cli._watch_poll(poll, "h", 9, ever_connected=True))
        assert result == {"ok": True} and calls["n"] == 3
        err = capsys.readouterr().err
        assert err.count("reconnecting to h:9") == 2
        assert "cannot reach" not in err

    def test_gives_up_after_max_retries(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "WATCH_BACKOFF_S", 0.0)

        async def poll():
            raise OSError("gone for good")

        with pytest.raises(cli._WatchGaveUp):
            asyncio.run(cli._watch_poll(poll, "h", 9, ever_connected=True))
        err = capsys.readouterr().err
        assert err.count("reconnecting to h:9") == cli.WATCH_MAX_RETRIES
        assert f"after {cli.WATCH_MAX_RETRIES} retries" in err


class TestIncidentsCommand:
    @pytest.fixture
    def artifact_dir(self, tmp_path):
        """A directory of exported incident bundles (the CI artifact shape)."""
        import json

        from repro.obs import EventLog, FlightRecorder

        events = EventLog()
        events.begin("server.request", path="/boom").finish(status=500, error="RuntimeError")
        recorder = FlightRecorder(events=events)
        recorder.note("generation-failure", "RuntimeError on /boom")
        recorder.note("loop-stall", "event-loop stall 80ms")
        recorder.dump(tmp_path)
        # A non-bundle JSON file must be ignored, not crash the listing.
        (tmp_path / "BENCH_other.json").write_text(json.dumps({"pages": 3}))
        return tmp_path

    def test_list_from_artifacts(self, artifact_dir, capsys):
        code = main(["incidents", "list", "--from-artifacts", str(artifact_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "incident-1" in out and "generation-failure" in out
        assert "incident-2" in out and "loop-stall" in out
        assert "BENCH_other" not in out

    def test_show_from_artifacts(self, artifact_dir, capsys):
        import json

        code = main([
            "incidents", "show", "incident-1", "--from-artifacts", str(artifact_dir),
        ])
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["incident"] == "incident-1"
        assert bundle["trigger"]["kind"] == "generation-failure"
        assert any(e.get("error") == "RuntimeError" for e in bundle["events"])

    def test_show_unknown_incident_fails(self, artifact_dir, capsys):
        code = main([
            "incidents", "show", "incident-99", "--from-artifacts", str(artifact_dir),
        ])
        assert code == 1
        assert "no incident" in capsys.readouterr().err

    def test_export_round_trips(self, artifact_dir, tmp_path, capsys):
        import json

        out_dir = tmp_path / "exported"
        code = main([
            "incidents", "export",
            "--from-artifacts", str(artifact_dir),
            "--dir", str(out_dir),
        ])
        assert code == 0
        assert "exported 2 incident bundle(s)" in capsys.readouterr().out
        written = sorted(out_dir.glob("*.json"))
        assert [p.name for p in written] == ["incident-1.json", "incident-2.json"]
        reread = json.loads(written[0].read_text())
        assert reread["format"] == "sww-incident/1"

    def test_list_empty_directory(self, tmp_path, capsys):
        code = main(["incidents", "list", "--from-artifacts", str(tmp_path)])
        assert code == 0
        assert "no incidents captured" in capsys.readouterr().out

    def test_missing_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["incidents", "list", "--from-artifacts", str(tmp_path / "absent")])

    def test_unreachable_server_fails_cleanly(self, capsys):
        code = main(["incidents", "list", "--port", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestFleet:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.edges == 4 and args.regions == 8
        assert args.passes == 2 and args.json is False

    def test_fleet_summary_output(self, capsys):
        assert main([
            "fleet", "--edges", "2", "--regions", "2", "--duration", "10",
            "--catalog", "40", "--passes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet hit rate" in out
        assert "origin offload" in out
        assert "warm pass shown" in out

    def test_fleet_json_output(self, capsys):
        import json

        assert main([
            "fleet", "--edges", "2", "--regions", "2", "--duration", "10",
            "--catalog", "40", "--passes", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["edges"] == 2
        assert len(payload["passes"]) == 1
        assert payload["passes"][0]["requests"] > 0
        assert set(payload["fleet"]["edges"]) == {"edge-00", "edge-01"}

    def test_fleet_json_is_the_same_bytes_under_any_hash_salt(self):
        """The fleet iterates a set of edge names and keeps str-keyed
        memos; none of it may leak ``PYTHONHASHSEED`` into a number."""
        import os
        import subprocess
        import sys

        repo_src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
        outputs = set()
        for salt in ("0", "1", "77"):
            done = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "fleet", "--edges", "4", "--regions", "4",
                    "--duration", "30", "--catalog", "40", "--passes", "2", "--json",
                ],
                env=dict(os.environ, PYTHONPATH=repo_src, PYTHONHASHSEED=salt),
                capture_output=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1 and outputs.pop().startswith(b"{")
