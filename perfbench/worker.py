"""The workload process of ``synth_search``.

    python perfbench/worker.py --workload NAME --seed N --part I
                               --seconds S [--trace 0|1] --out FILE

``run.py`` spawns it and times its set-up from the spawn: the worker
prints ``ready`` once it can issue its first timed operation, then
measures and writes its samples to ``FILE`` as JSON.  A run spreads its
measuring over several workers; ``--part`` numbers them, so each one
runs different searches and checks different results.

With ``--trace 1`` the worker first runs untraced operations for a share
(``UNTRACED_SHARE``) of the time, then the same operations again with
spans recorded, so the traced/untraced wall ratio compares like with
like.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

from common import UNTRACED_SHARE, require_program


def _batching() -> dict:
    from repro import profiling
    from repro.analysis import plan_cache

    stats = profiling.batching_stats()
    cache = plan_cache()
    out = {k: v for k, v in vars(stats).items() if isinstance(v, (int, float))}
    out["plan_hits"] = cache.hits
    out["plan_misses"] = cache.misses
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


# -- synth_search -----------------------------------------------------------


#: rounds per search, sized so both demonstrations take similar time
#: (about 0.7 s on a 2-vCPU Xeon host).  A shared host's speed flips
#: between full and about half within a second; a search spanning
#: several flips keeps the median search time from jumping between the
#: two speeds when the share of slow time shifts a little.
SYNTH_ROUNDS = {"hanayo": 15, "chimera": 45}
#: searches of the seeded list each part may run (even, so every part
#: starts on the same demonstration)
SYNTH_PART = 100


class SynthSearch:
    def __init__(self, seed: int, part: int):
        from inputs import synth_searches

        self.seed, self.part = seed, part
        self.searches = synth_searches(seed)
        self.results: list = []
        for shape in self.searches[:2]:  # warm-up: one short search each
            self._search(dict(shape, rounds=2))
        self.results.clear()

    def _search(self, shape: dict):
        from repro.config import CostConfig, PipelineConfig
        from repro.runtime import AbstractCosts
        from repro.schedules import build_schedule
        from repro.synthesis import SearchConfig, synthesize

        cost = CostConfig(t_f=1.0, t_b=2.0, t_c=0.25)
        cfg = PipelineConfig(scheme=shape["scheme"],
                             num_devices=shape["p"],
                             num_microbatches=shape["b"],
                             num_waves=shape["w"])
        rounds = shape.get("rounds", SYNTH_ROUNDS[shape["scheme"]])
        sched = build_schedule(cfg, cost)
        oracle = AbstractCosts(cost, cfg.num_devices, sched.num_stages)
        config = SearchConfig(seed=shape["seed"], rounds=rounds,
                              samples_per_round=32, beam_width=6,
                              patience=rounds, max_shift=6)
        result = synthesize(sched, oracle, config, start=shape["start"])
        self.results.append((result, cfg, cost))
        return result

    def op(self, index: int) -> dict:
        result = self._search(self.searches[
            (self.part * SYNTH_PART + index) % len(self.searches)])
        return {"items": result.evaluated, "illegal": result.illegal}

    def check(self) -> tuple[int, list[str]]:
        """Replay a seeded sample of best schedules; each must give the
        makespan its search reported."""
        from repro.synthesis import payload_for, replay_payload

        rng = random.Random(f"synth/check/{self.seed}/{self.part}")
        sample = rng.sample(self.results, min(3, len(self.results)))
        problems = []
        for result, cfg, cost in sample:
            report = replay_payload(payload_for(result, cfg, cost))
            if not (report.consistent
                    and report.makespan == result.best.makespan):
                problems.append(f"replay of {result.name} seed "
                                f"{result.config.seed}: {report.describe()}")
        return len(sample), problems


WORKLOADS = {"synth_search": SynthSearch}


def _timed(workload, count: int | None, seconds: float,
           tracer=None) -> dict:
    """Run operations until ``seconds`` pass (or ``count`` are done)."""
    walls, errors = [], []
    totals = {"items": 0, "illegal": 0}
    start = time.perf_counter()
    index = 0
    while (len(walls) < count if count is not None
           else time.perf_counter() - start < seconds or not walls):
        if tracer is not None:
            tracer.set_op(index + 1)
        t0 = time.perf_counter()
        try:
            out = workload.op(index)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            out = {}
        walls.append(time.perf_counter() - t0)
        for key in totals:
            totals[key] += out.get(key, 0)
        index += 1
    return dict(totals, walls=walls, errors=errors)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    require_program()

    workload = WORKLOADS[args.workload](args.seed, args.part)
    print(f"ready {time.perf_counter()!r}", flush=True)

    out: dict = {"pid": os.getpid()}
    if args.trace:
        from tracing import Tracer, install, self_times

        out["untraced"] = _timed(workload, None,
                                 UNTRACED_SHARE * args.seconds)
        tracer = Tracer()
        install(tracer, ("core", "synthesis"))
        before = _batching()
        traced = _timed(workload, len(out["untraced"]["walls"]), 0.0,
                        tracer)
        traced["batching"] = _delta(_batching(), before)
        traced["layers"] = self_times(tracer.spans)
        traced["spans"] = tracer.spans
        out["traced"] = traced
    else:
        out["untraced"] = _timed(workload, None, args.seconds)
    checked, problems = workload.check()
    out["checked"] = checked
    out["problems"] = problems
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
