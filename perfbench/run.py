"""The repository's benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the ``repro`` sources
under ``src/`` there.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see ``layers.py`` and
``README.md``).  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``perfbench: {...}``) carries the host fingerprint, the settings, the
sample counts and, for traced runs, the path of the merged Chrome trace.

Workloads
---------
``cold_sweep``         two streams of fresh ``python -m repro sweep`` processes
``serve_closed_loop``  ``repro serve`` under two closed-loop connections
``synth_search``       seeded ``repro.synthesis.synthesize`` searches
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import common
import inputs
import tracing
from common import (HERE, PYTHON, ROOT, RUN_DIR, UNTRACED_SHARE, child_env,
                    median, tail)
from layers import WORKLOADS, layer_metrics

#: set-ups per run, spread over its measuring time; ``setup_s`` is their
#: median.  The host's speed drifts over tens of seconds, so set-ups
#: taken between operations read the same drift the operations do.
SETUPS = 3
#: side-by-side streams of operations on ``cold_sweep`` and
#: ``synth_search``, one per vCPU of the 2-vCPU hosts they were sized on.
#: A lone single-threaded process reads one vCPU's speed, which on a
#: shared host swings by ±25% for tens of seconds; two streams read both
#: vCPUs, as the server's threads and its client do on serve_closed_loop.
STREAMS = 2
#: set-up probes per ``cold_sweep`` run; a probe is one bare interpreter
#: start, cheap enough to take three times as many as ``SETUPS``
PROBES = 3 * SETUPS
#: budget for any one child process
CHILD_TIMEOUT = 150.0


def _spawn(argv: list[str], out=subprocess.DEVNULL, err=None):
    return subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                            cwd=ROOT, text=True)


def _side_by_side(body) -> list:
    """Run ``body(stream, stop, live)`` in ``STREAMS`` threads; return
    their results in stream order.

    A body checks ``stop`` between operations and keeps the children it
    waits for in ``live``.  When a stream fails the others stop after
    their current operation; when the run is stopped, what is still
    running is killed.  Every thread is waited for.
    """
    stop = threading.Event()
    live: set = set()
    results: list = [None] * STREAMS
    errors: list[BaseException] = []

    def run(stream: int) -> None:
        try:
            results[stream] = body(stream, stop, live)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=run, args=(k,), daemon=True)
               for k in range(STREAMS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
        for proc in list(live):
            proc.kill()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _ready(proc: subprocess.Popen, prefix: str) -> str:
    """Read a child's stdout up to the line starting with ``prefix``."""
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited before printing {prefix!r}")
        if line.startswith(prefix):
            return line[len(prefix):].strip()


def import_times(samples: int = 3) -> dict:
    """Medians of ``-X importtime`` self times of ``import repro`` in a
    fresh interpreter, summed per top-level package (seconds)."""
    runs: dict[str, list[float]] = {}
    for _ in range(samples):
        done = subprocess.run(
            [PYTHON, "-X", "importtime", "-c", "import repro"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT, check=True)
        own = {"numpy": 0, "networkx": 0, "repro": 0}
        total = 0
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].strip().startswith(
                    "import time:") or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            family = name.split(".")[0]
            if family in own:
                own[family] += int(parts[0].split(":")[1])
            if name == "repro" and parts[2][1] != " ":
                total = int(parts[1])
        for key, value in dict(own, total=total).items():
            runs.setdefault(key, []).append(value / 1e6)
    return {key: median(values) for key, values in runs.items()}


# -- in-process workload (synth_search) --------------------------------------


def _worker(workload: str, seed: int, part: int, seconds: float,
            trace: int, out: Path, live: set) -> dict:
    """Run one worker to its end (``live`` holds it meanwhile); return
    its samples, its set-up seconds (spawn to ready) and its peak RSS."""
    argv = [PYTHON, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--part", str(part),
            "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    t0 = time.perf_counter()
    proc = _spawn(argv, out=subprocess.PIPE)
    live.add(proc)
    try:
        ready = float(_ready(proc, "ready "))
    finally:
        proc.stdout.close()
        try:
            rc, rss = common.wait_rss(proc, seconds * 4 + CHILD_TIMEOUT)
        finally:
            live.discard(proc)
    if rc != 0:
        raise RuntimeError(f"{workload} worker exited with {rc}")
    return dict(json.loads(out.read_text()), setup=ready - t0, rss=rss)


#: the set-up share of every ``cold_sweep`` CLI process: interpreter
#: start and the import of the CLI, in a bare interpreter
PROBE = ("import time, repro.cli; "
         "print('ready', repr(time.perf_counter()), flush=True)")


def _probe_setup() -> float:
    t0 = time.perf_counter()
    proc = _spawn([PYTHON, "-c", PROBE], out=subprocess.PIPE)
    try:
        return float(_ready(proc, "ready ")) - t0
    finally:
        proc.stdout.close()
        common.wait_rss(proc, CHILD_TIMEOUT)


def run_in_process(workload: str, seed: int, seconds: float, trace: int,
                   work: Path) -> dict:
    """Untraced: ``STREAMS`` streams side by side, each running
    ``SETUPS`` workers one after another that measure a share of
    ``seconds`` after their own set-up.  Traced: one worker."""
    if trace:
        parts = [_worker(workload, seed, 0, seconds, 1,
                         work / "worker.json", set())]
    else:
        def stream(k: int, stop: threading.Event, live: set) -> list:
            mine = []
            for i in range(k * SETUPS, (k + 1) * SETUPS):
                if not stop.is_set():
                    mine.append(_worker(workload, seed, i, seconds / SETUPS,
                                        0, work / f"worker{i}.json", live))
            return mine

        parts = [part for done in _side_by_side(stream) for part in done]
    walls = [w for part in parts for w in part["untraced"]["walls"]]
    problems = [p for part in parts
                for p in part["untraced"]["errors"] + part["problems"]]
    for problem in problems:
        print(f"perfbench: FAILED {problem}")
    result = {
        "setups": [] if trace else [part["setup"] for part in parts],
        "walls": walls,
        "items": sum(part["untraced"]["items"] for part in parts),
        "rss": [part["rss"] for part in parts],
        "attempted": len(walls), "failed": len(problems),
        "checked": sum(part["checked"] for part in parts)}
    data = parts[0]
    if trace:
        traced = data["traced"]
        ops = len(traced["walls"])
        result["attempted"] += ops
        result["failed"] += len(traced["errors"])
        batching = traced["batching"]
        extra = {
            "batching": batching,
            "plan_cache": {"hits": batching["plan_hits"],
                           "misses": batching["plan_misses"]},
            "trace_overhead": sum(traced["walls"]) / sum(walls),
        }
        if workload == "synth_search" and traced["items"]:
            extra["legal_share"] = 1 - traced["illegal"] / traced["items"]
        result["traced"] = {
            "layers": traced["layers"], "ops": ops,
            "wall": sum(traced["walls"]) / ops, "extra": extra,
            "events": tracing.chrome_events(
                [tuple(s) for s in traced["spans"]], data["pid"],
                f"{workload} worker"),
        }
    return result


# -- cold_sweep -----------------------------------------------------------------


def _sweep_child(argv: list[str], work: Path, tag: str, spans: Path | None,
                 op: int, live: set):
    """One CLI process, timed from spawn to reap; ``live`` holds it
    while it runs, so a stopped run can kill it."""
    log = work / f"{tag}.out"
    if spans is not None:
        cmd = [PYTHON, str(HERE / "child.py"), str(spans), str(op), "--"]
    else:
        cmd = [PYTHON, "-m", "repro"]
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = _spawn(cmd + argv, out=fh)
        live.add(proc)
        try:
            rc, rss = common.wait_rss(proc, CHILD_TIMEOUT)
        finally:
            live.discard(proc)
        t1 = time.perf_counter()
    cells = 0
    for line in log.read_text().splitlines():
        if " cells: " in line and " computed" in line:
            cells = int(line.split(" cells: ")[1].split()[0])
    return {"t0": t0, "t1": t1, "rc": rc, "rss": rss, "cells": cells}


def _cold_spec(argv: list[str]):
    """The SweepSpec ``repro sweep`` builds from ``argv`` (default path:
    every layout of the device count, TP = 1)."""
    from repro.analysis import layouts_for
    from repro.cli import make_parser
    from repro.cluster import get_cluster
    from repro.models import bert_64, gpt_128
    from repro.sweep import SweepSpec

    args = make_parser().parse_args(argv)
    factories = {"bert": bert_64, "gpt": gpt_128}
    return SweepSpec(
        schemes=tuple(args.schemes),
        clusters=tuple(get_cluster(n, args.devices) for n in args.clusters),
        models=tuple(factories[n]() for n in args.models),
        layouts=layouts_for(args.devices),
        total_batches=tuple(args.batch), waves=tuple(args.sweep_waves),
    )


def _check_cold(seed: int, done: list[tuple[list[str], str]]) -> tuple[int, list]:
    """Compare a seeded sample of cached cell records with the scalar
    measurement path, bit for bit."""
    from repro.sweep import ResultCache
    from repro.sweep.engine import _evaluate, point_key

    rng = random.Random(f"cold_sweep/check/{seed}")
    problems = []
    checked = 0
    for argv, cache_dir in rng.sample(done, min(2, len(done))):
        spec = _cold_spec(argv)
        cache = ResultCache(cache_dir)
        points = spec.expand()
        for index in rng.sample(range(len(points)), 2):
            point = points[index]
            got = cache.get(point_key(spec, point))
            _i, want = _evaluate((
                index, point, spec.clusters[point.cluster_index],
                spec.models[point.model_index], spec.overlap,
                spec.enforce_memory, spec.capacity_bytes, spec.contention))
            checked += 1
            if got != json.loads(json.dumps(want)):
                problems.append(f"{' '.join(argv)} cell {index}: "
                                f"{got} != {want}")
    return checked, problems


def run_cold_sweep(seed: int, seconds: float, trace: int,
                   work: Path) -> dict:
    """``STREAMS`` streams side by side, each starting its next CLI
    process when its last one ended."""
    setups: list = []
    plain, traced, done = [], [], []
    lock = threading.Lock()
    indices = itertools.count()
    start = time.perf_counter()

    def stream(_k: int, stop: threading.Event, live: set) -> None:
        while not stop.is_set():
            with lock:
                elapsed = time.perf_counter() - start
                if elapsed >= seconds and plain:
                    return
                index = next(indices)
                # probes at the start and after each further PROBES-th
                # of the run
                probe = not trace and len(setups) < PROBES \
                    and elapsed >= len(setups) * seconds / PROBES
                if probe:
                    setups.append(None)
                    slot = len(setups) - 1
            if probe:
                setups[slot] = _probe_setup()
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
            argv = inputs.cold_sweep_args(seed, index, cache_dir)
            run = _sweep_child(argv, work, f"op{index}", None, index + 1,
                               live)
            with lock:
                plain.append(run)
                done.append((argv, cache_dir))
            if trace and not stop.is_set():
                spans = work / f"spans{index}.json"
                traced_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
                run = _sweep_child(
                    inputs.cold_sweep_args(seed, index, traced_dir), work,
                    f"traced{index}", spans, index + 1, live)
                with lock:
                    traced.append((index, run, spans))

    _side_by_side(stream)
    while not trace and len(setups) < PROBES:
        setups.append(_probe_setup())
    traced.sort(key=lambda entry: entry[0])
    checked, problems = _check_cold(seed, done)
    failed = sum(1 for r in plain + [run for _i, run, _s in traced]
                 if r["rc"] != 0 or not r["cells"])
    failed += len(problems)
    for problem in problems:
        print(f"perfbench: FAILED {problem}")
    result = {
        "setups": setups, "walls": [r["t1"] - r["t0"] for r in plain],
        "items": sum(r["cells"] for r in plain),
        "rss": [r["rss"] for r in plain],
        "attempted": len(plain) + len(traced), "failed": failed,
        "checked": checked,
    }
    if trace:
        agg: dict = {}
        batching: dict = {}
        cache = {"hits": 0, "misses": 0}
        events, ops = [], []
        for op, (_index, run, path) in enumerate(traced, 1):
            data = json.loads(path.read_text())
            spans = [tuple(s) for s in data["spans"]]
            tracing.merge(agg, tracing.self_times(spans))
            # interpreter start before the script runs, and the exit
            # after the CLI returns (span dump included)
            tracing.merge(agg, {
                "cli.start": {"self": data["start"] - run["t0"]},
                "cli.exit": {"self": run["t1"] - data["end"]}})
            for key, value in data["batching"].items():
                batching[key] = batching.get(key, 0) + value
            for key in cache:
                cache[key] += data["plan_cache"][key]
            events += tracing.chrome_events(spans, data["pid"],
                                            f"repro sweep #{op}")
            ops.append((op, 0, "op", run["t0"], run["t1"], op, 0, None))
        events += tracing.chrome_events(ops, os.getpid(), "perfbench")
        twalls = [r["t1"] - r["t0"] for _i, r, _s in traced]
        result["traced"] = {
            "layers": agg, "ops": len(traced),
            "wall": sum(twalls) / len(twalls), "events": events,
            "extra": {"batching": batching, "plan_cache": cache,
                      "trace_overhead":
                          sum(twalls) / sum(result["walls"])},
        }
    return result


# -- serve_closed_loop ------------------------------------------------------


class Server:
    """A fresh ``repro serve --port 0`` child (traced through
    ``child.py`` when ``spans`` is given)."""

    def __init__(self, spans: Path | None = None):
        if spans is None:
            cmd = [PYTHON, "-m", "repro"]
        else:
            cmd = [PYTHON, str(HERE / "child.py"), str(spans), "0", "--"]
        self.t0 = time.perf_counter()
        self.proc = _spawn(cmd + ["serve", "--port", "0"],
                           out=subprocess.PIPE)
        try:
            url = _ready(self.proc, "serving on ")
        except Exception:
            self.stop()
            raise
        host, port = url.split("//")[1].rsplit(":", 1)
        self.address = (host, int(port))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(*self.address, timeout=120)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> float:
        """SIGTERM (graceful drain), reap; returns peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.read()
        self.proc.stdout.close()
        rc, rss = common.wait_rss(self.proc, CHILD_TIMEOUT)
        if rc != 0:
            raise RuntimeError(f"repro serve exited with {rc}")
        return rss


def _post(conn: http.client.HTTPConnection, path: str, payload: dict):
    body = json.dumps(payload).encode()
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _answer_ok(path: str, status: int, body: bytes) -> bool:
    if status != 200:
        return False
    if path == "/sweep":
        last = json.loads(body.splitlines()[-1])
        return last.get("kind") == "sweep"
    return True


def closed_loop(server: Server, queries: list, seconds: float,
                count: int | None = None, clients: int = 2) -> list[dict]:
    """Drive ``clients`` connections, each sending its next query only
    when the previous answer arrived, for ``seconds`` (or until
    ``count`` queries were sent)."""
    feed = iter(enumerate(queries))
    lock = threading.Lock()
    records: list[dict] = []
    deadline = time.perf_counter() + seconds
    errors: list[BaseException] = []

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    if (count is None and time.perf_counter() >= deadline) \
                            or (count is not None and len(records) >= count):
                        return
                    index, (path, payload) = next(feed)
                    slot = {"index": index, "path": path}
                    records.append(slot)
                t0 = time.perf_counter()
                status, body = _post(conn, path, payload)
                slot.update(t0=t0, t1=time.perf_counter(), status=status,
                            body=body)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records


def _check_serve(seed: int, queries: list, records: list) -> tuple[int, list]:
    """Compare a seeded sample of served bytes with the in-process
    answer to the same query."""
    from repro.serve.codec import AdviseQuery, SweepQuery, dumps_canonical
    from repro.serve.queries import advise_answer, sweep_answer

    rng = random.Random(f"serve/check/{seed}")
    ok = [r for r in records if r["status"] == 200]
    advise = [r for r in ok if r["path"] == "/advise"]
    sweeps = [r for r in ok if r["path"] == "/sweep"]
    sample = rng.sample(advise, min(4, len(advise)))
    sample += rng.sample(sweeps, min(1, len(sweeps)))
    problems = []
    for record in sample:
        payload = queries[record["index"]][1]
        if record["path"] == "/advise":
            want = dumps_canonical(advise_answer(
                AdviseQuery.from_payload(payload)))
            got = record["body"]
        else:
            want = dumps_canonical(sweep_answer(
                SweepQuery.from_payload(payload)))
            got = record["body"].splitlines(keepends=True)[-1]
        if got != want:
            problems.append(f"served {record['path']} {payload} differs "
                            "from the in-process answer")
    return len(sample), problems


def _stats_delta(after: dict, before: dict) -> dict:
    def flat(stats: dict) -> dict:
        serve = stats["serve"]
        occupancy = serve["dispatch_occupancy"]
        return dict(
            stats["batching"],
            hits=stats["plan_cache"]["hits"],
            misses=stats["plan_cache"]["misses"],
            queries=serve["queries"], dedup=serve["dedup_hits"],
            dispatches=serve["dispatches"],
            dispatched=sum(int(n) * c for n, c in occupancy.items()))
    a, b = flat(after), flat(before)
    return {k: v - b.get(k, 0) for k, v in a.items()
            if isinstance(v, (int, float))}


def _cells(path: str, body: bytes) -> int:
    last = json.loads(body.splitlines()[-1])
    if path == "/sweep":
        return last["result"]["stats"]["total"]
    return last["considered"]


def _warm(server: Server) -> None:
    conn = server.connect()
    try:
        for path, payload in inputs.serve_warmup():
            status, body = _post(conn, path, payload)
            if status != 200:
                raise RuntimeError(f"warm-up {payload} got {status}: {body}")
    finally:
        conn.close()


def _serve_phase(queries: list, seconds: float,
                 count: int | None, spans: Path | None) -> dict:
    server = Server(spans)
    try:
        _warm(server)
        setup = time.perf_counter() - server.t0
        before = server.stats()
        records = closed_loop(server, queries, seconds, count)
        delta = _stats_delta(server.stats(), before)
    finally:
        rss = server.stop()
    return {"setup": setup, "records": records, "delta": delta, "rss": rss}


def _serve_setup() -> float:
    server = Server()
    try:
        _warm(server)
        return time.perf_counter() - server.t0
    finally:
        server.stop()


def run_serve(seed: int, seconds: float, trace: int, work: Path) -> dict:
    """One server measured for the whole run, so the growth a long-lived
    server shows stays in the figures; untraced, the other set-ups are
    servers started before and after it."""
    queries = inputs.serve_queries(seed)
    before = [] if trace else [_serve_setup()
                               for _ in range((SETUPS - 1) // 2)]
    phase = _serve_phase(queries, seconds * (
        UNTRACED_SHARE if trace else 1.0), None, None)
    after = [] if trace else [_serve_setup()
                              for _ in range(SETUPS - 1 - len(before))]
    setups = before + [phase["setup"]] + after
    records = phase["records"]
    checked, problems = _check_serve(seed, queries, records)
    good = [r for r in records
            if _answer_ok(r["path"], r["status"], r["body"])]
    for problem in problems:
        print(f"perfbench: FAILED {problem}")
    latencies = [r["t1"] - r["t0"] for r in records]
    span = max(r["t1"] for r in records) - min(r["t0"] for r in records)
    result = {
        "setups": setups, "walls": latencies,
        "items": sum(_cells(r["path"], r["body"]) for r in good),
        "rss": [phase["rss"]], "attempted": len(records),
        "failed": len(records) - len(good) + len(problems),
        "checked": checked,
        "elapsed": span,
    }
    if trace:
        spans_path = work / "server-spans.json"
        tphase = _serve_phase(queries, 0.0, len(records), spans_path)
        trecords = tphase["records"]
        result["attempted"] += len(trecords)
        result["failed"] += sum(1 for r in trecords if not _answer_ok(
            r["path"], r["status"], r["body"]))
        data = json.loads(spans_path.read_text())
        start = min(r["t0"] for r in trecords)
        end = max(r["t1"] for r in trecords)
        spans = tracing.in_window([tuple(s) for s in data["spans"]],
                                  start, end)
        agg = tracing.self_times(spans)
        submit = agg.pop("serve.submit", {"self": 0.0, "calls": 0})
        agg["serve.batch_wait"] = {
            "self": submit["self"] - tracing.dispatch_share(spans)}
        tlat = [r["t1"] - r["t0"] for r in trecords]
        handled = sum(s[4] - s[3] for s in spans if s[2] == "serve.http")
        agg["serve.transport"] = {"self": sum(tlat) - handled}
        delta = tphase["delta"]
        tenth = max(1, len(latencies) // 10)
        ordered = [r["t1"] - r["t0"] for r in sorted(records,
                                                     key=lambda r: r["t1"])]
        client = [(i, 0, "op", r["t0"], r["t1"], i, 0, None)
                  for i, r in enumerate(trecords, 1)]
        result["traced"] = {
            "layers": agg, "ops": len(trecords),
            "wall": sum(tlat) / len(tlat),
            "events": tracing.chrome_events(spans, data["pid"], "repro serve")
            + tracing.chrome_events(client, os.getpid(), "perfbench client"),
            "extra": {
                "batching": delta,
                "plan_cache": {"hits": delta["hits"],
                               "misses": delta["misses"]},
                "dedup_share": delta["dedup"] / max(1, delta["queries"]),
                "dispatch_lanes_mean":
                    delta["dispatched"] / max(1, delta["dispatches"]),
                "drift_ratio": median(ordered[-tenth:])
                / median(ordered[:tenth]),
                "trace_overhead": sum(tlat) / sum(latencies[:len(tlat)]),
            },
        }
    return result


# -- the run ----------------------------------------------------------------


def end_to_end(result: dict) -> dict:
    walls = result["walls"]
    busy = result.get("elapsed", sum(walls))
    p99, _pct = tail(walls)
    throughput = result["items"] / busy
    return {
        "setup_s": (median(result["setups"]), "s"),
        "wall_s": (median(walls), "s"),
        "cells_per_s": (throughput, "cells/s"),
        "p50_ms": (1e3 * median(walls), "ms"),
        "p99_ms": (1e3 * p99, "ms"),
        "qps": (len(walls) / busy, "1/s"),
        "candidates_per_s": (throughput, "candidates/s"),
        "peak_rss_mb": (median(result["rss"]), "MB"),
    }


RUNNERS = {
    "cold_sweep": run_cold_sweep,
    "serve_closed_loop": run_serve,
    "synth_search": lambda *a: run_in_process("synth_search", *a),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_program()
    # a terminated run still stops (in ``finally`` blocks) what it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        result = RUNNERS[args.workload](args.seed, args.seconds, args.trace,
                                        work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = result["attempted"], result["failed"]
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": common.host_fingerprint(),
        "samples": {"setup_s": len(result["setups"]),
                    "wall_s": len(result["walls"]),
                    "p99_ms": tail(result["walls"])[1],
                    "peak_rss_mb": len(result["rss"])},
    }
    if args.trace:
        traced = result["traced"]
        trace_path = RUN_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracing.write_chrome_trace(str(trace_path), traced["events"])
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        extra = dict(traced["extra"])
        extra["import"] = import_times()
        extra["error_rate"] = failed / attempted
        extra["peak_rss_mb"] = median(result["rss"])
        metrics = layer_metrics(traced["layers"], traced["ops"],
                                traced["wall"], extra)
    else:
        metrics = end_to_end(result)
    info["error_rate"] = failed / attempted
    info["outputs_checked"] = result["checked"]
    common.emit(info, failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
