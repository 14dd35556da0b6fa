"""Golden pin for topology routing.

``tests/golden/routes.json`` records :meth:`Topology.effective_link`
— link name, bandwidth and latency (floats as ``float.hex``), or
``no route`` — for every ordered pair of

* every cluster preset at 2–32 devices (PC at even counts only), and
* a seeded set of random sparse topologies over the five link classes,
  plus hand-built tie cases: several shortest paths of equal weight
  whose hops differ, duplicate declarations of one pair, and
  disconnected islands.

On sparse topologies the route is the one found by a bidirectional
Dijkstra; ties between equal-weight paths resolve by expansion order,
so a router that merely finds *a* shortest path picks a different
bottleneck name or latency sum on some tie pairs and fails this pin.

The file stores each random topology's link declarations, so the pin
does not depend on :mod:`random` staying stable.  Regenerate (only on
an intended semantic change) with
``PYTHONPATH=src python tests/test_routes_golden.py --write``.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

import pytest

from repro.cluster import (
    CLOUD_NET,
    INTER_NODE,
    NVLINK2,
    NVLINK3,
    PCIE4,
    Topology,
    make_fc,
    make_pc,
    make_tacc,
    make_tc,
)
from repro.errors import ConfigError

GOLDEN = pathlib.Path(__file__).parent / "golden" / "routes.json"

LINKS = {link.name: link for link in
         (NVLINK3, NVLINK2, PCIE4, INTER_NODE, CLOUD_NET)}
PRESETS = {"FC": make_fc, "PC": make_pc, "TACC": make_tacc, "TC": make_tc}
NO_ROUTE = "no route"

#: seed and size of the random sparse set
SEED, RANDOM_TOPOLOGIES = 20240613, 400

#: hand-built tie cases as ``(devices, declarations)``
TIES = {
    # two 2-hop paths of one class between 0 and 3
    "square": (4, [(0, 1, "nvlink3"), (1, 3, "nvlink3"),
                   (0, 2, "nvlink3"), (2, 3, "nvlink3")]),
    # 2 NVLink2 hops weigh the same as 4 NVLink3 hops (1e-11 either
    # way) but sum different latencies
    "hop-count": (6, [(0, 1, "nvlink2"), (1, 5, "nvlink2"),
                      (0, 2, "nvlink3"), (2, 3, "nvlink3"),
                      (3, 4, "nvlink3"), (4, 5, "nvlink3")]),
    # a slower declaration after a faster one keeps the faster link;
    # a faster one after a slower replaces it in place
    "redeclared": (5, [(0, 1, "pcie4"), (1, 2, "nvlink3"),
                       (0, 1, "nvlink3"), (2, 3, "nvlink3"),
                       (1, 2, "pcie4"), (0, 4, "nvlink3"),
                       (4, 3, "nvlink3")]),
    # two islands
    "islands": (6, [(0, 1, "nvlink3"), (1, 2, "pcie4"),
                    (3, 4, "ib-shared"), (4, 5, "cloud-vpc")]),
}


def random_declarations(rng: random.Random) -> tuple[int, list]:
    """One sparse topology: 3–10 devices, a random subset of pairs in a
    random order and orientation, few link classes (so equal-weight
    paths are common) and the odd re-declared pair."""
    n = rng.randint(3, 10)
    density = rng.uniform(0.2, 0.6)
    classes = rng.sample(sorted(LINKS), rng.randint(1, 3))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < density]
    rng.shuffle(pairs)
    decls = []
    for a, b in pairs:
        if rng.random() < 0.5:
            a, b = b, a
        decls.append((a, b, rng.choice(classes)))
        if rng.random() < 0.1:
            decls.append((b, a, rng.choice(sorted(LINKS))))
    return n, decls


def cases() -> list[dict]:
    """Every pinned topology as ``{"name", "devices", "decls"?}``;
    presets carry no declarations (their factory builds them)."""
    out = []
    for name in PRESETS:
        for n in range(2, 33):
            if name == "PC" and n % 2:
                continue
            out.append({"name": name, "devices": n})
    for name, (n, decls) in TIES.items():
        out.append({"name": f"tie-{name}", "devices": n,
                    "decls": [list(d) for d in decls]})
    rng = random.Random(SEED)
    for i in range(RANDOM_TOPOLOGIES):
        n, decls = random_declarations(rng)
        out.append({"name": f"random-{i}", "devices": n,
                    "decls": [list(d) for d in decls]})
    return out


def build(case: dict) -> Topology:
    if "decls" not in case:
        return PRESETS[case["name"]](case["devices"]).topology
    topo = Topology(case["name"], case["devices"])
    for a, b, link in case["decls"]:
        topo.add_link(a, b, LINKS[link])
    return topo


def route(topo: Topology, a: int, b: int) -> str | list:
    try:
        link = topo.effective_link(a, b)
    except ConfigError as exc:
        assert "no route" in str(exc)
        return NO_ROUTE
    return [link.name, link.bandwidth.hex(), link.latency.hex()]


def route_table(topo: Topology) -> list[list]:
    """``effective_link`` of every ordered pair; ``None`` on the
    diagonal."""
    n = topo.num_devices
    return [[None if a == b else route(topo, a, b) for b in range(n)]
            for a in range(n)]


def encode(case: dict, links: dict) -> dict:
    """``case`` plus its route table, each route as an index into the
    shared ``links`` table (filled in as new routes appear)."""
    rows = [[None if r is None else links.setdefault(json.dumps(r),
                                                     len(links))
             for r in row] for row in route_table(build(case))]
    return {**case, "routes": rows}


def write_golden() -> None:
    links: dict[str, int] = {}
    topologies = [encode(case, links) for case in cases()]
    lines = ['{"links": [']
    lines.append(",\n".join("  " + key for key in links))
    lines.append('], "topologies": [')
    lines.append(",\n".join("  " + json.dumps(t, separators=(",", ":"))
                            for t in topologies))
    lines.append("]}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(topologies)} topologies, {len(links)} distinct "
          f"routes to {GOLDEN}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _mismatches(golden, preset: bool) -> tuple[int, list[str]]:
    table = golden["links"]
    checked, bad = 0, []
    for case in golden["topologies"]:
        if ("decls" not in case) != preset:
            continue
        actual = route_table(build(case))
        for a, row in enumerate(case["routes"]):
            for b, index in enumerate(row):
                if index is None:
                    continue
                checked += 1
                if actual[a][b] != table[index]:
                    bad.append(f"{case['name']} {a}->{b}: "
                               f"{actual[a][b]} != {table[index]}")
    return checked, bad


@pytest.mark.parametrize("preset", [True, False], ids=["presets", "sparse"])
def test_routes_match_golden(golden, preset):
    checked, bad = _mismatches(golden, preset)
    assert checked > 0
    assert not bad, f"{len(bad)} of {checked} routes differ: {bad[:5]}"


def test_sparse_set_exercises_multihop_and_ties(golden):
    """The sparse set must contain what makes routing hard: many
    multi-hop routes, unreachable pairs and equal-weight ties."""
    table = golden["links"]
    multihop = {i for i, r in enumerate(table)
                if r != NO_ROUTE and r[0].startswith("path(")}
    sparse = [t for t in golden["topologies"] if "decls" in t]
    routes = [i for t in sparse for row in t["routes"] for i in row]
    assert sum(i in multihop for i in routes) > 1000
    assert table.index(NO_ROUTE) in routes
    # the hand-built tie really is one: both paths weigh the same
    assert 2 * (1 / NVLINK2.bandwidth) == 4 * (1 / NVLINK3.bandwidth)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        print(__doc__)
