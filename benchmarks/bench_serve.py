#!/usr/bin/env python
"""Load benchmark for the advisor daemon (``BENCH_serve.json``).

Drives a real in-process :class:`~repro.serve.server.AdvisorServer`
over HTTP (sockets, codec, micro-batcher — the full served path) and
measures three things:

* ``warm_vs_cold`` — the point of serving: one warmed-up served
  ``/advise`` answer versus a cold ``python -m repro advise --json``
  subprocess paying interpreter start, imports and plan compilation.
  The served answer is asserted byte-identical to the subprocess's
  before timing starts.
* ``concurrent_load`` — thousands of mixed advise queries (4 clusters
  x 3 batch sizes x 2 top-k, plus duplicate shapes to exercise
  single-flight) from concurrent client threads: p50/p99 latency and
  queries/second.
* ``batcher_on`` / ``batcher_off`` — the micro-batcher itself, HTTP
  stripped away: concurrent threads submit distinct advise queries'
  measurement lanes through one :class:`MicroBatcher` with coalescing
  on versus off.  ``batching_speedup`` is the on/off lane-throughput
  ratio — what cross-query lockstep stacking is worth (coalesced lanes
  from different queries share congruence groups and advance as one
  ``PlanBatch``; uncoalesced ones execute one query's list at a time).
  Measured at the executor level because HTTP client overhead — which
  lives in this process and shares the GIL — would otherwise drown the
  signal on small hosts.

Usage::

    python benchmarks/bench_serve.py            # run + print
    python benchmarks/bench_serve.py --write    # refresh baseline
    python benchmarks/bench_serve.py --check    # CI gate

``--check`` gates on machine-portable ratios so it works on CI runners
of any speed: the cold/warm speedup must hold :data:`COLD_SPEEDUP_FLOOR`
(the issue's 10x acceptance bar), the on/off throughput ratio must hold
:data:`BATCHING_RATIO_FLOOR`, and the normalized serving-quality ratios
(p99 as a multiple of the single-query warm latency; throughput as
effective concurrency, qps x warm seconds) must stay within
:data:`REGRESSION_TOLERANCE` of the committed baseline.  Raw
milliseconds are reported for humans but never gated.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import urllib.request

if __package__ is None or __package__ == "":  # direct script invocation
    _src = pathlib.Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

BASELINE_PATH = (pathlib.Path(__file__).resolve().parents[1]
                 / "BENCH_serve.json")

#: --check fails when a normalized ratio regresses past (1 + this) /
#: falls below (1 - this) of the committed baseline
REGRESSION_TOLERANCE = 0.30

#: acceptance floor: a warmed served answer must beat a cold
#: ``repro advise`` process by at least this factor
COLD_SPEEDUP_FLOOR = 10.0

#: acceptance floor: cross-query coalescing must keep winning (it is
#: typically a 1.5-2x lane-throughput gain; a ratio near 1 means the
#: dispatcher stopped stacking lanes across queries)
BATCHING_RATIO_FLOOR = 1.2

#: the concurrent load: every distinct query shape is asked this many
#: times by round-robin client threads
QUERIES_PER_SHAPE = 42
CLIENT_THREADS = 8

#: cold-process and warm-serve timing repeats (best-of)
REPEATS = 3


def _mixed_queries(duplicates: bool):
    """The query workload: 24 distinct questions, optionally doubled.

    4 clusters x 3 total batches x 2 top-k = 24 distinct questions.
    With ``duplicates`` each appears twice *adjacently* in the cycle,
    so round-robin clients pick up identical queries concurrently and
    single-flight gets real duplicates to merge; without, every
    in-flight query is distinct — the pure micro-batching regime the
    on/off comparison isolates (dedup fires in both modes and would
    drown the batching signal otherwise).
    """
    from repro.serve import AdviseQuery

    shapes = [
        AdviseQuery.make(cluster, "bert", 8, batch, top=top)
        for cluster in ("PC", "FC", "TACC", "TC")
        for batch in (8, 16, 32)
        for top in (5, 10)
    ]
    if duplicates:
        return [s for shape in shapes for s in (shape, shape)]
    return shapes


def _post(url: str, body: bytes) -> bytes:
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST")
    with urllib.request.urlopen(request, timeout=300) as response:
        return response.read()


def _start_server(coalesce: bool = True):
    from repro.serve.server import AdvisorServer

    server = AdvisorServer(("127.0.0.1", 0), coalesce=coalesce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop_server(server, thread) -> None:
    server.drain(timeout=60)
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- scenario: one warm served answer vs one cold process ---------------------


def bench_warm_vs_cold() -> dict:
    from repro.serve import AdviseQuery, dumps_canonical

    query = AdviseQuery.make("FC", "bert", 8, 8, top=5)
    body = dumps_canonical(query.to_payload())
    argv = [sys.executable, "-m", "repro", "advise", "--cluster", "FC",
            "-n", "8", "--batch", "8", "--top", "5", "--json"]
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1]
                             / "src")}

    server, thread = _start_server()
    try:
        url = server.url + "/advise"
        served = _post(url, body)  # warm the caches
        cold_out = subprocess.run(argv, env=env, capture_output=True,
                                  check=True)
        # parity gate before timing: a fast wrong answer is worthless
        if cold_out.stdout != served:
            raise AssertionError("served answer != `repro advise --json`")
        warm = min(_timed(lambda: _post(url, body))
                   for _ in range(REPEATS * 3))
        cold = min(_timed(lambda: subprocess.run(
            argv, env=env, capture_output=True, check=True))
            for _ in range(REPEATS))
    finally:
        _stop_server(server, thread)
    return {
        "warm_ms": round(warm * 1e3, 3),
        "cold_ms": round(cold * 1e3, 3),
        "speedup_cold_vs_warm": round(cold / warm, 2),
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- scenario: mixed concurrent load ------------------------------------------


def _drive_load(server, duplicates: bool) -> dict:
    from repro import profiling
    from repro.serve import dumps_canonical

    cycle = _mixed_queries(duplicates)
    bodies = [dumps_canonical(q.to_payload()) for q in cycle]
    jobs = bodies * QUERIES_PER_SHAPE
    url = server.url + "/advise"
    for body in bodies:  # warm every shape's plans once
        _post(url, body)
    profiling.serve_stats().reset()

    latencies: list[list[float]] = [[] for _ in range(CLIENT_THREADS)]
    errors: list[BaseException] = []
    next_job = {"index": 0}
    pick = threading.Lock()

    def client(slot: int) -> None:
        try:
            while True:
                with pick:
                    index = next_job["index"]
                    if index >= len(jobs):
                        return
                    next_job["index"] = index + 1
                latencies[slot].append(_timed(
                    lambda: _post(url, jobs[index])))
        except BaseException as exc:  # noqa: BLE001 - fail the bench
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(CLIENT_THREADS)]
    wall = _timed(lambda: [
        [t.start() for t in threads], [t.join() for t in threads]])
    if errors:
        raise errors[0]
    samples = [s for per_client in latencies for s in per_client]
    assert len(samples) == len(jobs)
    stats = profiling.serve_stats().snapshot()
    return {
        "queries": len(jobs),
        "client_threads": CLIENT_THREADS,
        "wall_s": round(wall, 3),
        "qps": round(len(jobs) / wall, 1),
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 3),
        "dedup_hits": stats["dedup_hits"],
        "dispatches": stats["dispatches"],
        "mean_lanes_per_dispatch": round(
            sum(int(lanes) * count for lanes, count in
                stats["dispatch_occupancy"].items())
            / max(1, stats["dispatches"]), 2),
    }


def bench_concurrent_load(coalesce: bool = True,
                          duplicates: bool = True) -> dict:
    server, thread = _start_server(coalesce=coalesce)
    try:
        return _drive_load(server, duplicates)
    finally:
        _stop_server(server, thread)


# -- scenario: the micro-batcher itself, no HTTP ------------------------------


def bench_batcher(coalesce: bool) -> dict:
    """Concurrent submitters through one MicroBatcher, on vs off.

    Each job is one distinct advise query's full request list — what a
    handler thread hands the batcher per query.  With coalescing, lanes
    from different in-flight queries stack into shared congruence
    groups (an advise query's own cells all differ structurally, so
    within-query stacking is nil — the win only exists *across*
    queries, which is exactly what this isolates).  Timing runs with gc
    parked (same reasoning as ``bench_perf_core``): collector pauses
    land inside whichever dispatch happens to trigger them and punish
    the coalesced path's larger allocations disproportionately.
    """
    from repro.serve.batcher import MicroBatcher
    from repro.serve.queries import advise_requests

    queries = _mixed_queries(duplicates=False)
    request_lists = [advise_requests(q)[1] for q in queries]
    rounds = 8
    jobs = request_lists * rounds
    lanes = sum(len(rs) for rs in jobs)

    batcher = MicroBatcher(coalesce=coalesce)
    batcher_off = MicroBatcher(coalesce=False)
    batcher_off.measure(request_lists[0])  # warm the plan cache
    for rs in request_lists:
        batcher_off.measure(rs)
    batcher_off.close()

    next_job = {"index": 0}
    pick = threading.Lock()
    errors: list[BaseException] = []

    def submitter() -> None:
        try:
            while True:
                with pick:
                    index = next_job["index"]
                    if index >= len(jobs):
                        return
                    next_job["index"] = index + 1
                batcher.measure(jobs[index])
        except BaseException as exc:  # noqa: BLE001 - fail the bench
            errors.append(exc)

    def drive() -> None:
        next_job["index"] = 0
        threads = [threading.Thread(target=submitter)
                   for _ in range(CLIENT_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        wall = min(_timed(drive) for _ in range(REPEATS))
    finally:
        if was_enabled:
            gc.enable()
    if errors:
        raise errors[0]
    batcher.close()
    return {
        "queries": len(jobs),
        "lanes": lanes,
        "wall_s": round(wall, 3),
        "lanes_per_s": round(lanes / wall, 1),
    }


# -- driver -------------------------------------------------------------------


def run_all() -> dict:
    warm_cold = bench_warm_vs_cold()
    load_mixed = bench_concurrent_load(coalesce=True, duplicates=True)
    batch_on = bench_batcher(coalesce=True)
    batch_off = bench_batcher(coalesce=False)
    warm_s = warm_cold["warm_ms"] / 1e3
    return {
        "version": 1,
        "scenarios": {
            "warm_vs_cold": warm_cold,
            "concurrent_load": load_mixed,
            "batcher_on": batch_on,
            "batcher_off": batch_off,
        },
        # machine-portable serving-quality ratios (what --check gates):
        # p99 as a multiple of the single-query warm latency, effective
        # concurrency (qps x warm seconds), and the coalescing on/off
        # lane-throughput ratio
        "ratios": {
            "p99_over_warm": round(
                load_mixed["p99_ms"] / warm_cold["warm_ms"], 3),
            "throughput_scale": round(load_mixed["qps"] * warm_s, 3),
            "batching_speedup": round(
                batch_on["lanes_per_s"] / batch_off["lanes_per_s"], 3),
        },
    }


def report(payload: dict) -> str:
    wc = payload["scenarios"]["warm_vs_cold"]
    mixed = payload["scenarios"]["concurrent_load"]
    on = payload["scenarios"]["batcher_on"]
    off = payload["scenarios"]["batcher_off"]
    ratios = payload["ratios"]
    return "\n".join([
        "advisor serving benchmark (warm daemon vs cold CLI, "
        "concurrent load)",
        f"  warm_vs_cold     warm {wc['warm_ms']:8.1f} ms   cold "
        f"{wc['cold_ms']:8.1f} ms   speedup "
        f"{wc['speedup_cold_vs_warm']:6.1f}x",
        f"  concurrent_load  {mixed['queries']} queries / "
        f"{mixed['client_threads']} clients   {mixed['qps']:6.1f} qps   "
        f"p50 {mixed['p50_ms']:6.1f} ms   p99 {mixed['p99_ms']:6.1f} ms   "
        f"{mixed['dedup_hits']} dedup hits   "
        f"{mixed['mean_lanes_per_dispatch']:.1f} lanes/dispatch",
        f"  batcher on/off   {on['lanes_per_s']:8.1f} vs "
        f"{off['lanes_per_s']:8.1f} lanes/s over {on['lanes']} lanes"
        f"   -> coalescing worth {ratios['batching_speedup']:.2f}x",
        f"  ratios           p99/warm {ratios['p99_over_warm']:.2f}   "
        f"effective concurrency {ratios['throughput_scale']:.2f}",
    ])


def check(payload: dict, baseline: dict) -> list[str]:
    """CI-gating failures vs floors and the committed baseline."""
    problems: list[str] = []
    speedup = payload["scenarios"]["warm_vs_cold"][
        "speedup_cold_vs_warm"]
    if speedup < COLD_SPEEDUP_FLOOR:
        problems.append(
            f"warm_vs_cold: served speedup {speedup:.1f}x below the "
            f"required {COLD_SPEEDUP_FLOOR:.0f}x floor")
    ratios = payload["ratios"]
    if ratios["batching_speedup"] < BATCHING_RATIO_FLOOR:
        problems.append(
            f"batching_speedup: micro-batching on/off throughput ratio "
            f"{ratios['batching_speedup']:.2f} fell below "
            f"{BATCHING_RATIO_FLOOR:.1f} (coalescing is losing)")
    base = baseline.get("ratios", {})
    p99 = ratios["p99_over_warm"]
    if "p99_over_warm" in base and \
            p99 > (1 + REGRESSION_TOLERANCE) * base["p99_over_warm"]:
        problems.append(
            f"p99_over_warm: tail latency ratio {p99:.2f} regressed "
            f">{REGRESSION_TOLERANCE:.0%} vs baseline "
            f"{base['p99_over_warm']:.2f}")
    scale = ratios["throughput_scale"]
    if "throughput_scale" in base and \
            scale < (1 - REGRESSION_TOLERANCE) * base["throughput_scale"]:
        problems.append(
            f"throughput_scale: effective concurrency {scale:.2f} "
            f"regressed >{REGRESSION_TOLERANCE:.0%} vs baseline "
            f"{base['throughput_scale']:.2f}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help=f"refresh {BASELINE_PATH.name}")
    mode.add_argument("--check", action="store_true",
                      help="fail on floor violations or >30%% ratio "
                           "regressions vs the committed baseline")
    args = parser.parse_args(argv)

    payload = run_all()
    print(report(payload))
    if args.write:
        BASELINE_PATH.write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0
    if args.check:
        try:
            baseline = json.loads(BASELINE_PATH.read_text())
        except FileNotFoundError:
            print(f"error: no committed baseline at {BASELINE_PATH}",
                  file=sys.stderr)
            return 1
        problems = check(payload, baseline)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"floors held (cold/warm {COLD_SPEEDUP_FLOOR:.0f}x, "
              f"batching ratio {BATCHING_RATIO_FLOOR:.1f}); serving "
              f"ratios within {REGRESSION_TOLERANCE:.0%} of the "
              "committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
