"""Seeded workload inputs.  The program sees only what these return.

Every generator draws from ``random.Random`` seeded with the run's seed,
so one seed always gives the same inputs.  The draws vary orders —
of schemes, clusters and models in a grid, of queries in the serve
stream, of search seeds — never how much work an operation holds, so
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import random

CLUSTERS = ("PC", "FC", "TACC", "TC")
MODELS = ("bert", "gpt")
SWEEP_SCHEMES = ("gpipe", "dapple", "chimera-wave", "hanayo")


def cold_sweep_args(seed: int, index: int, cache_dir: str) -> list[str]:
    """CLI arguments of the ``index``-th cold sweep of a run.

    A fig09-style grid: the four default schemes × all four clusters ×
    bert and gpt × every (P, D) layout of 8 devices at batch 16, 108
    cells, evaluated inline into an empty result cache.  The seed orders
    schemes, clusters and models; every sweep holds the same cells,
    since a cluster's memory decides how many cells are pruned before
    simulation and so how much work a sweep does.
    """
    rng = random.Random(f"cold_sweep/{seed}/{index}")
    clusters = rng.sample(CLUSTERS, len(CLUSTERS))
    models = rng.sample(MODELS, 2)
    schemes = rng.sample(SWEEP_SCHEMES, len(SWEEP_SCHEMES))
    return ["sweep", "--schemes", *schemes, "--clusters", *clusters,
            "--model", *models, "-n", "8", "--batch", "16",
            "--cache", cache_dir]


def serve_queries(seed: int, count: int = 4000) -> list[tuple[str, dict]]:
    """The closed-loop query stream: ``(path, payload)`` pairs.

    Advise queries walk shuffled blocks of 4 clusters × bert/gpt ×
    batches 8/16/32 with top-k cycling through 3/5/10, so every stretch
    of the stream covers the space evenly.  Every fifth query repeats
    its predecessor (two connections then ask the same thing at once,
    and single-flight merges them); every fiftieth is a small streamed
    sweep — rare enough that the tail percentile measures advise
    queries, not the boundary between the two kinds.
    """
    rng = random.Random(f"serve/{seed}")
    combos = [(c, m, b) for c in CLUSTERS for m in MODELS for b in (8, 16, 32)]
    block: list = []
    out: list[tuple[str, dict]] = []
    for i in range(count):
        if i % 50 == 49:
            out.append(("/sweep", {
                "schemes": sorted(rng.sample(SWEEP_SCHEMES, 2)),
                "cluster": rng.choice(CLUSTERS), "models": ["bert"],
                "devices": 8, "batches": [16],
            }))
        elif i % 5 == 4:
            out.append(out[-1])
        else:
            if not block:
                block = rng.sample(combos, len(combos))
            cluster, model, batch = block.pop()
            out.append(("/advise", {
                "cluster": cluster, "model": model, "devices": 8,
                "batch": batch, "top": (3, 5, 10)[i % 3],
            }))
    return out


def serve_warmup() -> list[tuple[str, dict]]:
    """Queries a fresh server answers before timing: one per model and
    batch size, so every schedule structure the stream asks for is
    compiled once, spread over the four clusters."""
    return [("/advise", {"cluster": CLUSTERS[i % len(CLUSTERS)],
                         "model": m, "devices": 8, "batch": b, "top": 3})
            for i, (m, b) in enumerate((m, b) for m in MODELS
                                       for b in (8, 16, 32))]


def synth_searches(seed: int, count: int = 600) -> list[dict]:
    """Search settings, alternating the two synthesis demonstrations.

    * rediscovery: hanayo P=4 B=4 W=2 searched from an all-forwards
      (GPipe-style) start;
    * placement: chimera P=4 B=6 searched from its compiled order.
    """
    rng = random.Random(f"synth/{seed}")
    shapes = (
        {"scheme": "hanayo", "p": 4, "b": 4, "w": 2, "start": "gpipe"},
        {"scheme": "chimera", "p": 4, "b": 6, "w": 1, "start": None},
    )
    return [dict(shapes[i % 2], seed=rng.randrange(2**31))
            for i in range(count)]
