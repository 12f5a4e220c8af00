"""E2E request correlation: one id, one chain, across every layer.

The tentpole contract of the live-telemetry PR (docs/DAEMON.md): a
``request_id`` minted at the client is threaded through the daemon
verb, the registry, the delta engine and the fused flow scheduler,
and ``repro obs req`` can reassemble the whole story afterwards —
connected (opens with ``request``, closes with ``response``) and
time-ordered.
"""

import asyncio
import json
import os
import threading

import pytest

from repro.daemon import DaemonClient, DaemonServer
from repro.obs import request_chain, validate_event, validate_telemetry
from repro.obs.live import render_prometheus, render_request
from tests.helpers import BACKEND_LEGS


@pytest.fixture(params=BACKEND_LEGS)
def endpoint(request, tmp_path):
    """A live daemon on a temp Unix socket, one per backend leg,
    with the event sink on and the slow-capture threshold at zero
    (every request is "slow", so span profiles are always taken)."""
    path = str(tmp_path / "repro.sock")
    events_path = str(tmp_path / "events.jsonl")
    loop = asyncio.new_event_loop()
    box = {}

    def run():
        from repro.obs.events import EventLog

        asyncio.set_event_loop(loop)
        box["server"] = DaemonServer(
            socket_path=path,
            events=EventLog(sink_path=events_path),
            slow_threshold_s=0.0,
        )
        loop.run_until_complete(box["server"].serve_forever())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    for _ in range(200):
        if os.path.exists(path):
            break
        threading.Event().wait(0.01)
    yield path, events_path, box
    if not box["server"]._shutdown.is_set():
        with DaemonClient(socket_path=path) as client:
            client.shutdown()
    thread.join(timeout=10)


def drive_session(client):
    """define / redefine / lint, returning the per-step request ids."""
    ids = {}
    client.define("demo", "id", "fn x => x")
    ids["define"] = client.last_request_id
    client.define("demo", "use", "id (fn[l1] y => y)")
    client.define("demo", "id", "fn[l2] z => z")
    ids["redefine"] = client.last_request_id
    client.lint("demo")
    ids["lint"] = client.last_request_id
    return ids


class TestRequestCorrelation:
    def test_chains_are_connected_and_ordered(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            ids = drive_session(client)
            events = client.telemetry()["events"]
        for step, request_id in ids.items():
            report = request_chain(events, request_id)
            assert report["connected"], (step, report)
            assert report["ordered"], (step, report)
            assert report["status"] == "ok"
            assert report["events"][0]["kind"] == "request"
            assert report["events"][-1]["kind"] == "response"
            # Human rendering works for every chain.
            assert request_id in render_request(report)

    def test_chain_spans_server_delta_flow(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            ids = drive_session(client)
            events = client.telemetry()["events"]
        redefine = request_chain(events, ids["redefine"])
        assert "server" in redefine["components"]
        assert "delta" in redefine["components"]
        delta = [e for e in redefine["events"] if e["kind"] == "delta"]
        assert len(delta) == 1
        assert delta[0]["op"] == "define" and delta[0]["name"] == "id"
        assert "retracted_edges" in delta[0]
        # The lint verb runs the fused flow sweeps; its chain carries
        # the per-request step totals end to end.
        lint = request_chain(events, ids["lint"])
        assert {"server", "flow"} <= set(lint["components"])
        flow = [e for e in lint["events"] if e["kind"] == "flow"]
        assert any(e["fused"] for e in flow)
        assert all(e["steps"] >= 0 for e in flow)
        response = lint["events"][-1]
        assert response["flow_steps"] == sum(e["steps"] for e in flow)

    def test_ids_never_cross_between_requests(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            ids = drive_session(client)
            events = client.telemetry()["events"]
        seen = {}
        for event in events:
            if event["request_id"] is not None:
                seen.setdefault(event["request_id"], []).append(event)
        # Every correlated event belongs to exactly one request chain,
        # and the session's ids are all distinct.
        assert len(set(ids.values())) == len(ids)
        for request_id, chain in seen.items():
            kinds = [e["kind"] for e in chain]
            assert kinds.count("request") <= 1, (request_id, kinds)
            assert kinds.count("response") <= 1, (request_id, kinds)

    def test_client_chosen_id_is_respected(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            client.request(
                "define",
                project="demo",
                name="f",
                source="fn x => x",
                request_id="my-session-0001",
            )
            assert client.last_request_id == "my-session-0001"
            events = client.telemetry()["events"]
        report = request_chain(events, "my-session-0001")
        assert report["connected"] and report["verb"] == "define"


class TestTelemetryVerb:
    def test_envelope_validates(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            drive_session(client)
            document = client.telemetry()
        validate_telemetry(document)
        assert document["schema"] == "repro.events/1"
        assert document["uptime_s"] >= 0
        assert document["events_emitted"] == len(document["events"])
        histograms = document["metrics"]["histograms"]
        assert histograms["daemon.latency.define"]["count"] == 3
        assert histograms["daemon.latency.lint"]["count"] == 1
        assert histograms["daemon.retractions_per_redefine"]["count"] == 3

    def test_prometheus_format(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            drive_session(client)
            result = client.telemetry(fmt="prometheus")
        assert result["format"] == "prometheus"
        text = result["text"]
        assert "repro_daemon_uptime_seconds" in text
        assert "repro_daemon_latency_define_bucket" in text
        assert 'le="+Inf"' in text
        # The text matches a fresh render of the JSON document.
        with DaemonClient(socket_path=path) as client:
            document = client.telemetry()
        assert render_prometheus(document).splitlines()[0] == \
            text.splitlines()[0]

    def test_slow_capture_at_zero_threshold(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            ids = drive_session(client)
            document = client.telemetry()
        slow = document["slow"]
        assert {entry["request_id"] for entry in slow} >= set(ids.values())
        for entry in slow:
            assert entry["seconds"] >= 0
            assert entry["verb"]
            # The attached span profile is folded-stack formatted.
            assert any(
                line.startswith(f"verb.{entry['verb']}")
                for line in entry["profile"]
            ), entry

    def test_slow_lint_profile_reaches_the_flow_layer(self, endpoint):
        # The lint verb's capture descends below the verb: one span per
        # lint pass, with the fused flow sweep nested under a pass.
        path, _, _ = endpoint
        ids = []
        with DaemonClient(socket_path=path) as client:
            for name, source in (
                ("id", "fn x => x"),
                ("use", "id (fn[l1] y => y)"),
            ):
                client.define("demo", name, source)
                ids.append(("define", client.last_request_id))
                client.lint("demo")
                ids.append(("lint", client.last_request_id))
            document = client.telemetry()
        profiles = {e["request_id"]: e["profile"] for e in document["slow"]}
        for verb, rid in ids:
            stacks = [line.rpartition(" ")[0] for line in profiles[rid]]
            # Consecutive requests on one warm project share no frames:
            # every stack is rooted at the request's own verb.
            assert all(
                stack.split(";")[0] == f"verb.{verb}" for stack in stacks
            ), (verb, stacks)
            if verb == "lint":
                assert any(s.startswith("verb.lint;lint.") for s in stacks)
                assert any(
                    s.startswith("verb.lint;lint.") and ";flow." in s
                    for s in stacks
                ), stacks

    def test_status_uptime_events_hits(self, endpoint):
        path, _, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            drive_session(client)
            status = client.status()
        assert status["uptime_s"] >= 0
        assert status["events_dropped"] == 0
        events = status["events"]
        assert events["emitted"] == events["buffered"] > 0
        (warm,) = status["projects"]["warm"]
        assert warm["project"] == "demo"
        # First define creates (cold), the rest reuse the warm graph.
        assert warm["hits"]["cold"] == 1
        assert warm["hits"]["warm"] >= 3


class TestEventSink:
    def test_sink_mirrors_the_ring_per_request(self, endpoint):
        path, events_path, _ = endpoint
        with DaemonClient(socket_path=path) as client:
            ids = drive_session(client)
            ring = client.telemetry()["events"]
        with open(events_path, "r", encoding="utf-8") as handle:
            sunk = [json.loads(line) for line in handle if line.strip()]
        # The sink is flushed once per finished request, so it holds
        # every event the ring holds up to the last response (the
        # telemetry request itself may still be buffered).
        by_seq = {e["seq"]: e for e in sunk}
        for event in ring:
            if event["request_id"] in set(ids.values()):
                assert by_seq[event["seq"]] == event


class TestSubscribe:
    def test_streaming_tail(self, endpoint):
        path, _, _ = endpoint
        received = []

        def consume():
            with DaemonClient(socket_path=path, timeout=5.0) as sub:
                for event in sub.subscribe(grep="define"):
                    received.append(event)
                    if event["kind"] == "response":
                        break

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        threading.Event().wait(0.2)
        with DaemonClient(socket_path=path) as client:
            client.define("demo", "id", "fn x => x")
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert received, "no events streamed"
        for event in received:
            validate_event(event)
            assert "define" in json.dumps(event)
        assert received[-1]["kind"] == "response"
