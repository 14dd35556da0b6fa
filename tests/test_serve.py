"""The serving layer: codec, micro-batcher, single-flight, HTTP daemon.

The load-bearing guarantees under test:

* **parity** — a served ``/advise`` answer is byte-identical to the
  batch path (``advise_answer`` + canonical serialization, what
  ``repro advise --json`` prints) for every query shape in the grid,
  including TP > 1 hybrid and capacity-pruned cells;
* **single-flight** — two identical concurrent queries execute once
  and both get the answer;
* **micro-batching** — concurrent submissions coalesce into one batch
  harness call, outcomes routed back in submission order;
* **streaming** — sweep answers arrive as chunked NDJSON with monotone
  progress frames and a final table equal to the engine's;
* **drain** — SIGTERM on a real ``repro serve`` subprocess answers
  everything in flight and exits 0;
* **thread safety** — the plan cache and result cache survive
  concurrent hammering with their counter invariants intact.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import profiling
from repro.actions.lowering import ExecutablePlan
from repro.analysis import ThroughputRequest, plan_cache
from repro.cluster import make_fc
from repro.errors import ConfigError
from repro.models import tiny_model
from repro.serve import AdviseQuery, SweepQuery, dumps_canonical, query_key
from repro.serve.batcher import MicroBatcher
from repro.serve.codec import CODEC_VERSION
from repro.serve.queries import advise_answer, format_advise, sweep_answer
from repro.serve.server import AdvisorServer
from repro.serve.singleflight import SingleFlight

# ---------------------------------------------------------------------------
# codec


class TestCodec:
    def test_canonical_bytes_are_stable(self):
        a = dumps_canonical({"b": 1, "a": [2, {"z": None, "y": "ü"}]})
        b = dumps_canonical({"a": [2, {"y": "ü", "z": None}], "b": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert b" " not in a

    def test_advise_normalization_merges_equivalent_queries(self):
        q1 = AdviseQuery.make("fc", "bert", 8, 16, dp=[2, 1, 2])
        q2 = AdviseQuery.make("FC", "bert", 8, 16, dp=(1, 2))
        assert q1 == q2
        assert q1.dp == (1, 2)
        assert query_key("advise", q1) == query_key("advise", q2)

    def test_round_trip_through_payload(self):
        q = AdviseQuery.make("TACC", "gpt", 16, 32, tp=2, dp=[1],
                             top=3, capacity_gib=40)
        assert AdviseQuery.from_payload(q.to_payload()) == q
        s = SweepQuery.make(["gpipe", "hanayo"], "PC", ["bert", "tiny"],
                            8, [8, 16], tp=[2, 1], layouts=[[4, 2]])
        assert SweepQuery.from_payload(s.to_payload()) == s
        assert s.tp == (1, 2)

    @pytest.mark.parametrize("payload, fragment", [
        ({}, "missing required field"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "bogus": 1}, "unknown query field"),
        ({"cluster": "XX", "model": "bert", "devices": 8, "batch": 16},
         "unknown cluster"),
        ({"cluster": "FC", "model": "resnet", "devices": 8, "batch": 16},
         "unknown model"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": True},
         "boolean"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "tp": 3}, "must divide"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "dp": [0]}, "positive integers"),
        ({"cluster": "FC", "model": "bert", "devices": 8, "batch": 16,
          "capacity_gib": -1}, "positive number"),
        ({"cluster": "FC", "model": "bert", "devices": "8", "batch": 16},
         "has type str"),
    ])
    def test_bad_advise_payloads_name_the_field(self, payload, fragment):
        with pytest.raises(ConfigError, match=fragment):
            AdviseQuery.from_payload(payload)

    def test_bad_sweep_payloads(self):
        good = {"schemes": ["gpipe"], "cluster": "FC",
                "models": ["bert"], "devices": 8, "batches": [16]}
        with pytest.raises(ConfigError, match="schemes"):
            SweepQuery.from_payload({**good, "schemes": ["nope"]})
        with pytest.raises(ConfigError, match="layout"):
            SweepQuery.from_payload({**good, "layouts": [[4]]})
        with pytest.raises(ConfigError, match="devices"):
            SweepQuery.from_payload({**good, "devices": 1})

    def test_distinct_queries_hash_apart(self):
        q1 = AdviseQuery.make("FC", "bert", 8, 16)
        q2 = AdviseQuery.make("FC", "bert", 8, 32)
        assert query_key("advise", q1) != query_key("advise", q2)
        assert q1.capacity_bytes is None
        assert AdviseQuery.make("FC", "bert", 8, 16,
                                capacity_gib=2).capacity_bytes == 2**31


# ---------------------------------------------------------------------------
# the micro-batcher


def _fake_outcomes(requests):
    # identity-preserving fake harness: outcome i names request i
    return [("out", id(r)) for r in requests]


class TestMicroBatcher:
    def test_concurrent_submissions_coalesce(self, monkeypatch):
        calls = []

        def record(requests):
            calls.append(len(requests))
            return _fake_outcomes(requests)

        monkeypatch.setattr("repro.serve.batcher.measure_throughput_batch",
                            record)
        batcher = MicroBatcher(window_s=0.25)
        results = {}

        def submit(name):
            reqs = [object(), object()]
            results[name] = (reqs, batcher.measure(reqs))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.close()
        # all six lanes executed; the coalescing window merged the
        # concurrent submissions into (almost always one) shared call
        assert sum(calls) == 6
        assert len(calls) <= 2
        for reqs, outcomes in results.values():
            assert outcomes == [("out", id(r)) for r in reqs]

    def test_mixed_tp_submissions_share_one_dispatch(self, monkeypatch):
        """TP = 1 and TP = 2 lanes are one request type: concurrent
        submissions of both land in a single harness call."""
        calls = []

        def record(requests):
            calls.append([r.tp for r in requests])
            return _fake_outcomes(requests)

        monkeypatch.setattr("repro.serve.batcher.measure_throughput_batch",
                            record)
        model, cluster = tiny_model(num_layers=16), make_fc(8)
        flat = [ThroughputRequest(scheme="gpipe", cluster=cluster,
                                  model=model, p=4, num_microbatches=4)]
        hybrid = [ThroughputRequest(scheme="gpipe", cluster=cluster,
                                    model=model, p=2, num_microbatches=4,
                                    tp=2, d=d) for d in (1, 2)]
        batcher = MicroBatcher(window_s=0.2, workers=1)
        out = {}
        threads = [
            threading.Thread(target=lambda: out.setdefault(
                "flat", batcher.measure(flat))),
            threading.Thread(target=lambda: out.setdefault(
                "hybrid", batcher.measure(hybrid))),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.close()
        assert len(calls) == 1 and sorted(calls[0]) == [1, 2, 2]
        assert out["flat"] == _fake_outcomes(flat)
        assert out["hybrid"] == _fake_outcomes(hybrid)

    def test_errors_propagate_to_every_waiter(self, monkeypatch):
        def boom(requests):
            raise RuntimeError("harness exploded")

        monkeypatch.setattr("repro.serve.batcher.measure_throughput_batch",
                            boom)
        batcher = MicroBatcher(window_s=0.05)
        errors = []

        def submit():
            try:
                batcher.measure([object()])
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.close()
        assert errors == ["harness exploded"] * 2

    def test_closed_batcher_rejects_submissions(self):
        batcher = MicroBatcher(window_s=0.01)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.measure([object()])

    def test_uncoalesced_mode_runs_inline(self, monkeypatch):
        thread_ids = []
        monkeypatch.setattr(
            "repro.serve.batcher.measure_throughput_batch",
            lambda rs: thread_ids.append(threading.get_ident())
            or _fake_outcomes(rs))
        batcher = MicroBatcher(coalesce=False)
        batcher.measure([object()])
        batcher.close()
        assert thread_ids == [threading.get_ident()]


# ---------------------------------------------------------------------------
# single-flight


class TestSingleFlight:
    def test_concurrent_identical_calls_execute_once(self):
        flights = SingleFlight()
        started, release = threading.Event(), threading.Event()
        calls = []

        def compute():
            calls.append(1)
            started.set()
            release.wait(timeout=10)
            return b"answer"

        results = []

        def run():
            results.append(flights.do("k", compute))

        leader = threading.Thread(target=run)
        leader.start()
        assert started.wait(timeout=10)
        follower = threading.Thread(target=run)
        follower.start()
        # wait until the follower has joined the flight — the leader is
        # gated on `release`, so the flight cannot complete early
        deadline = time.monotonic() + 10
        while flights.waiting("k") == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert flights.waiting("k") == 1
        release.set()
        leader.join(timeout=10)
        follower.join(timeout=10)
        assert len(calls) == 1
        assert sorted(deduped for _v, deduped in results) == [False, True]
        assert {value for value, _d in results} == {b"answer"}

    def test_sequential_calls_do_not_dedup(self):
        flights = SingleFlight()
        calls = []
        for _ in range(2):
            value, deduped = flights.do("k", lambda: calls.append(1))
            assert not deduped
        assert len(calls) == 2

    def test_leader_error_propagates_to_followers(self):
        flights = SingleFlight()
        started, release = threading.Event(), threading.Event()

        def explode():
            started.set()
            release.wait(timeout=10)
            raise ValueError("bad question")

        failures = []

        def run():
            try:
                flights.do("k", explode)
            except ValueError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=run) for _ in range(2)]
        threads[0].start()
        assert started.wait(timeout=10)
        threads[1].start()
        deadline = time.monotonic() + 10
        while flights.waiting("k") == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert failures == ["bad question"] * 2


# ---------------------------------------------------------------------------
# repeated queries


class TestRepeatedQueries:
    def test_repeated_advise_reuses_cost_bindings(self, monkeypatch):
        """Preset clusters are memoized, so a repeated query hits the
        plan cache's cost bindings (keyed on cluster identity): nothing
        is re-timed and the bindings do not grow."""
        query = AdviseQuery.make("FC", "bert", 8, 8)
        first = advise_answer(query)

        def bindings():
            return sum(len(entry.bindings)
                       for entry in plan_cache()._store.values())

        retimes = []
        real = ExecutablePlan.retime

        def counted(plan, *args, **kwargs):
            retimes.append(plan)
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(ExecutablePlan, "retime", counted)
        before = bindings()
        assert advise_answer(query) == first
        assert retimes == []
        assert bindings() == before


# ---------------------------------------------------------------------------
# the HTTP server (in-process, real sockets on port 0)


@pytest.fixture(scope="module")
def server():
    srv = AdvisorServer(("127.0.0.1", 0))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.drain(timeout=30)
    srv.shutdown()
    thread.join(timeout=10)
    srv.server_close()


def _post(url: str, payload, timeout: float = 300.0):
    request = urllib.request.Request(
        url, data=dumps_canonical(payload),
        headers={"Content-Type": "application/json"}, method="POST")
    return urllib.request.urlopen(request, timeout=timeout)


#: the served≡batch parity grid: every query shape the issue calls out
#: — flat, restricted DP, TP > 1 hybrid, and capacity-pruned cells
PARITY_QUERIES = [
    pytest.param(dict(cluster="FC", model="bert", devices=8, batch=8,
                      top=5), id="flat"),
    pytest.param(dict(cluster="PC", model="bert", devices=4, batch=8,
                      dp=[1]), id="dp-restricted"),
    pytest.param(dict(cluster="TACC", model="bert", devices=8, batch=16,
                      tp=2), id="hybrid-tp2"),
    pytest.param(dict(cluster="FC", model="bert", devices=8, batch=8,
                      capacity_gib=0.05), id="capacity-pruned"),
]


class TestServedParity:
    @pytest.mark.parametrize("kwargs", PARITY_QUERIES)
    def test_served_advise_equals_batch_bytes(self, server, kwargs):
        query = AdviseQuery.make(**kwargs)
        with _post(server.url + "/advise", query.to_payload()) as resp:
            served = resp.read()
        assert served == dumps_canonical(advise_answer(query))
        payload = json.loads(served)
        assert payload["kind"] == "advise"
        assert payload["version"] == CODEC_VERSION
        assert payload["rows"], "parity grid queries must have answers"

    def test_capacity_pruning_actually_prunes(self, server):
        query = AdviseQuery.make("FC", "bert", 8, 8, capacity_gib=0.05)
        with _post(server.url + "/advise", query.to_payload()) as resp:
            payload = json.loads(resp.read())
        assert all(row["oom"] for row in payload["rows"])

    def test_served_answer_matches_cli_json(self, server):
        query = AdviseQuery.make("FC", "bert", 8, 8, top=5)
        with _post(server.url + "/advise", query.to_payload()) as resp:
            served = resp.read()
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "advise", "--cluster", "FC",
             "-n", "8", "--batch", "8", "--top", "5", "--json"],
            env={**os.environ,
                 "PYTHONPATH": os.path.join(os.getcwd(), "src")},
            capture_output=True, check=True)
        assert cli.stdout == served

    def test_format_advise_renders_the_cli_table(self):
        query = AdviseQuery.make("FC", "bert", 8, 8, top=5)
        text = format_advise(advise_answer(query))
        assert "seq/s" in text and "hanayo" in text
        assert "bert on cluster FC (8 devices), batch 8" in text

    def test_bad_query_is_a_400_naming_the_field(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server.url + "/advise", {"cluster": "FC"})
        assert info.value.code == 400
        assert "model" in json.loads(info.value.read())["error"]

    def test_unknown_path_is_a_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server.url + "/nope", {})
        assert info.value.code == 404

    def test_healthz_and_stats(self, server):
        with urllib.request.urlopen(server.url + "/healthz",
                                    timeout=10) as resp:
            health = json.loads(resp.read())
        assert health == {"ok": True, "draining": False}
        with urllib.request.urlopen(server.url + "/stats",
                                    timeout=10) as resp:
            stats = json.loads(resp.read())
        assert stats["serve"]["queries"] >= 1
        assert stats["plan_cache"]["entries"] >= 1
        assert "occupancy" in stats["batching"]


class TestServedSweep:
    def test_stream_frames_and_final_table_parity(self, server):
        query = SweepQuery.make(["gpipe", "hanayo"], "TACC", ["bert"],
                                8, [16])
        frames = []
        with _post(server.url + "/sweep", query.to_payload()) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            for line in resp:
                frames.append(json.loads(line))
        progress = [f for f in frames if f["kind"] == "progress"]
        assert progress, "sweeps must stream progress"
        dones = [f["done"] for f in progress]
        assert dones == sorted(dones)
        assert progress[-1]["done"] == progress[-1]["total"]
        final = frames[-1]
        assert final["kind"] == "sweep"
        assert dumps_canonical(final) == dumps_canonical(
            sweep_answer(query))

    def test_served_sweep_equals_engine_table(self, server):
        from repro.sweep.engine import run_sweep
        from repro.serve.queries import sweep_spec

        query = SweepQuery.make(["hanayo"], "TACC", ["bert"], 8, [16])
        with _post(server.url + "/sweep", query.to_payload()) as resp:
            final = json.loads(resp.read().splitlines()[-1])
        table = run_sweep(sweep_spec(query))
        assert final["result"] == json.loads(table.to_json())


class TestSingleFlightOverHTTP:
    def test_identical_concurrent_queries_execute_once(self, server,
                                                       monkeypatch):
        import repro.serve.server as server_mod

        real = server_mod.advise_answer
        calls = []
        started, release = threading.Event(), threading.Event()

        def gated(query, **kwargs):
            calls.append(1)
            started.set()
            release.wait(timeout=30)
            return real(query, **kwargs)

        monkeypatch.setattr(server_mod, "advise_answer", gated)
        before = profiling.serve_stats().dedup_hits
        query = AdviseQuery.make("FC", "bert", 8, 8, top=4)
        answers = []

        def ask():
            with _post(server.url + "/advise", query.to_payload()) as r:
                answers.append(r.read())

        key = query_key("advise", query)
        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=30)
        follower = threading.Thread(target=ask)
        follower.start()
        # park until the follower joins the in-flight group; the leader
        # is gated on `release`, so the flight cannot complete early
        deadline = time.monotonic() + 30
        while (server.flights.waiting(key) == 0
               and time.monotonic() < deadline):
            time.sleep(0.002)
        assert server.flights.waiting(key) == 1
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert len(calls) == 1, "one execution serves both queries"
        assert len(answers) == 2
        assert answers[0] == answers[1]
        assert profiling.serve_stats().dedup_hits == before + 1


class TestDrain:
    def test_draining_server_rejects_with_503(self):
        srv = AdvisorServer(("127.0.0.1", 0))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            assert srv.drain(timeout=10)
            query = AdviseQuery.make("FC", "bert", 8, 8)
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(srv.url + "/advise", query.to_payload(), timeout=10)
            assert info.value.code == 503
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.server_close()

    def test_sigterm_drains_the_daemon(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": os.path.join(os.getcwd(), "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            ready = proc.stdout.readline()
            match = re.match(r"serving on (http://[\d.]+:\d+)", ready)
            assert match, f"no ready line, got {ready!r}"
            url = match.group(1)
            query = AdviseQuery.make("FC", "bert", 8, 8, top=3)
            with _post(url + "/advise", query.to_payload(),
                       timeout=120) as resp:
                assert json.loads(resp.read())["rows"]
            proc.send_signal(signal.SIGTERM)
            stdout, _stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "drained" in stdout
            assert "serve: 1 queries" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


# ---------------------------------------------------------------------------
# cache thread safety (satellite of the serving work: both caches are
# now hit from many handler threads at once)


class TestCacheThreadSafety:
    def test_plan_cache_concurrent_hammering(self):
        from repro.analysis.plans import PlanCache

        cache = PlanCache(maxsize=16)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(300):
                    key = f"k{(seed * 7 + i) % 48}"
                    if cache.get(key) is None:
                        cache.put(key, object())
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        # every get bumped exactly one counter...
        assert cache.hits + cache.misses == 8 * 300
        # ...and the insertion ledger balances at quiescence
        assert cache.insertions == len(cache) + cache.evictions

    def test_bound_plan_retimes_once_under_contention(self):
        from repro.analysis.plans import PlanEntry

        class FakePlan:
            def __init__(self):
                self.retimes = 0

            def retime(self, oracle):
                self.retimes += 1
                time.sleep(0.005)  # widen the race window
                return ("bound", oracle)

        plan = FakePlan()
        entry = PlanEntry(schedule=None, program=None, plan=plan)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                entry.bound_plan("oracle-key", lambda: "oracle")))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert plan.retimes == 1
        assert results == [("bound", "oracle")] * 8

    def test_result_cache_concurrent_readers_and_writers(self, tmp_path):
        from repro.sweep.cache import ResultCache

        cache = ResultCache(tmp_path)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(60):
                    key = "a" * 60 + f"{(seed + i) % 10:04x}"
                    record = cache.get(key)
                    if record is not None:
                        assert record["value"] == key
                    cache.put(key, {"value": key})
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.hits + cache.misses == 6 * 60
        assert cache.writes == 6 * 60
        # every record is intact (no torn writes)
        for s in range(10):
            key = "a" * 60 + f"{s:04x}"
            assert cache.get(key) == {"value": key}
        # no temp files left behind
        assert not [p for p in os.listdir(tmp_path)
                    if p.startswith(".tmp-")]
