"""Run workloads N times and summarize; compare two saved result sets.

    python3 perfbench/repeat.py [--workload NAME ...] [--runs N] [--save FILE]
    python3 perfbench/repeat.py --compare BASE.json CHANGE.json

The first form runs ``run.py --trace 0`` on each workload (default: all
of them) with seeds ``1 .. N`` for the ``run_seconds`` that
``BENCHMARK.json`` fixes, and prints, per workload and end-to-end
metric, the median, the quartiles and the interquartile spread as a
share of the median, next to the metric's bound (spreads above a third
of the bound are flagged), plus the error rate.  ``--save`` keeps the
runs, each with its host fingerprint, seed and settings.

The second form compares two saved sets workload by workload and metric
by metric: each set's spread, the change of the median, and whether it
worsened beyond the bound.  It warns when the two sets come from
different host fingerprints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import HERE, ROOT, median, spread
from layers import WORKLOADS


def _benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _bounds() -> dict:
    return {m["name"]: m for m in _benchmark().get("end_to_end", [])}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{done.returncode}\n{done.stderr[-2000:]}")
    info = next((json.loads(line[len("perfbench: "):]) for line in lines
                 if line.startswith("perfbench: {")), {})
    return {"seed": seed, "info": info, "result": json.loads(lines[-1])}


def _spread(values: list) -> float:
    return spread(values) if len(values) > 1 else 0.0


def summarize(workload: str, runs: list[dict]) -> None:
    bounds = _bounds()
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    print(f"{workload}: {len(runs)} runs; error_rate {failed}/{attempted}; "
          f"correct in {sum(r['result']['correct'] for r in runs)}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        q1, _q2, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (values[0],) * 3)
        share = _spread(values)
        bound = bounds.get(name, {}).get("bound")
        flag = ("  <- over a third of the bound"
                if bound and share > bound / 3 else "")
        print(f"{name:34s} {median(values):12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.3f} {bound if bound else '':>6} {unit}{flag}")


def _host(saved: dict) -> dict:
    for runs in saved["runs"].values():
        return runs[0]["info"].get("host", {})
    return {}


def compare(base: dict, change: dict) -> None:
    if _host(base) != _host(change):
        print(f"WARNING: host fingerprints differ:\n  base   {_host(base)}"
              f"\n  change {_host(change)}")
    bounds = _bounds()
    for workload, base_runs in base["runs"].items():
        change_runs = change["runs"].get(workload)
        if not change_runs:
            print(f"{workload}: not in the change set")
            continue
        print(f"{workload}:\n{'metric':34s} {'base':>12s} {'spread':>8s} "
              f"{'change':>12s} {'spread':>8s} {'delta':>8s} {'bound':>6s}")
        for name in base_runs[0]["result"]["metrics"]:
            va, vb = ([r["result"]["metrics"][name]["value"] for r in runs]
                      for runs in (base_runs, change_runs))
            a, b = median(va), median(vb)
            delta = (b - a) / a if a else 0.0
            meta = bounds.get(name, {})
            worse = -delta if meta.get("better") == "higher" else delta
            verdict = ("  WORSE beyond bound"
                       if meta.get("bound") is not None
                       and worse > meta["bound"] else "")
            print(f"{name:34s} {a:12.6g} {_spread(va):8.3f} {b:12.6g} "
                  f"{_spread(vb):8.3f} {delta:+8.3f} "
                  f"{meta.get('bound', ''):>6}{verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        base, change = (json.loads(open(p, encoding="utf-8").read())
                        for p in args.compare)
        compare(base, change)
        return 0
    seconds = _benchmark()["run_seconds"]
    saved = {"runs": {}}
    for workload in args.workload:
        runs = saved["runs"][workload] = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, seconds))
            metrics = runs[-1]["result"]["metrics"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in metrics.items()),
                flush=True)
        summarize(workload, runs)
        if args.save:
            with open(args.save, "w", encoding="utf-8") as fh:
                json.dump(saved, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
