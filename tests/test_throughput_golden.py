"""Golden parity pin for the throughput harness.

``tests/golden/throughput_parity.json`` holds, per cell, the exact
:class:`~repro.analysis.ThroughputResult` record (floats as
``float.hex``) or :class:`~repro.errors.ConfigError` text of a grid
crossing schedule families x 3 clusters (8 and 16 devices) x TP 1/2/4
x in-range and oversize layouts x overlap mode x contention x
capacity.  The grid
includes static prunes, mid-run OOMs, oversize-layout rejections and
TP-exceeds-node rejections.  Each cell is checked through the batch
entry point (one mixed-TP request list) and through the scalar entry
points (``measure_throughput`` for TP = 1, ``measure_hybrid_throughput``
for TP > 1).

Each case row is ``[scheme, cluster, devices, tp, p, d, w, overlap,
contention, capacity_gib]``.  Regenerate (only on an intended semantic change) with
``PYTHONPATH=src python tests/test_throughput_golden.py --write``.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import fields

import pytest

from repro.analysis import (
    HybridLayout,
    ThroughputRequest,
    ThroughputResult,
    measure_hybrid_throughput,
    measure_throughput,
    measure_throughput_batch,
)
from repro.cluster import get_cluster
from repro.config import RunConfig
from repro.errors import ConfigError
from repro.models import bert_64

GOLDEN = pathlib.Path(__file__).parent / "golden" / "throughput_parity.json"

#: micro-batches and micro-batch size shared by every case
B, MB = 4, 2


def encode(outcome) -> str | list:
    """A ConfigError's text, or every result field with exact floats."""
    if isinstance(outcome, ConfigError):
        return str(outcome)
    row = []
    for f in fields(ThroughputResult):
        value = getattr(outcome, f.name)
        if f.name == "config":
            value = [value.scheme, value.num_devices, value.num_microbatches,
                     value.num_waves, value.data_parallel,
                     value.microbatch_size]
        elif isinstance(value, float):
            value = value.hex()
        row.append(value)
    return row


def _kwargs(case) -> dict:
    scheme, cluster, devices, _tp, _p, _d, w, overlap, _c, cap = case
    return dict(scheme=scheme, cluster=get_cluster(cluster, devices),
                model=bert_64(), num_microbatches=B, w=w,
                microbatch_size=MB, overlap=overlap,
                capacity_bytes=None if cap is None else cap * 2**30)


def batch_outcomes(cases) -> list:
    requests = []
    for case in cases:
        _s, _c, _n, tp, p, d, _w, _o, contention, _cap = case
        requests.append(ThroughputRequest(
            p=p, d=d, tp=tp, contention=contention, **_kwargs(case)))
    return [encode(out) for out in measure_throughput_batch(requests)]


def scalar_outcome(case):
    _s, _c, _n, tp, p, d, _w, _o, contention, _cap = case
    run = RunConfig(contention=contention)
    try:
        if tp == 1:
            out = measure_throughput(p=p, d=d, run=run, **_kwargs(case))
        else:
            out = measure_hybrid_throughput(
                layout=HybridLayout(tp, p, d), run=run, **_kwargs(case))
    except ConfigError as exc:
        out = exc
    return encode(out)


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN.read_text())
    assert data["fields"] == [f.name for f in fields(ThroughputResult)]
    return data["cases"]


def test_golden_covers_every_verdict(golden):
    verdicts = set()
    for _case, want in golden:
        if isinstance(want, str):
            verdicts.add("node" if "node size" in want else
                         "oversize-tp1" if "exceeds cluster" in want else
                         "oversize-tp" if "needs" in want else want)
            continue
        seq_per_s, pruned = want[3], want[8]
        verdicts.add("ok" if seq_per_s is not None else
                     "static" if pruned else "runtime-oom")
    assert verdicts == {"ok", "static", "runtime-oom", "node",
                        "oversize-tp1", "oversize-tp"}


def test_batch_matches_golden(golden):
    cases = [case for case, _want in golden]
    got = batch_outcomes(cases)
    mismatched = [case for (case, want), out in zip(golden, got)
                  if out != want]
    assert not mismatched, mismatched[:5]


def test_scalar_matches_golden(golden):
    mismatched = [case for case, want in golden
                  if scalar_outcome(case) != want]
    assert not mismatched, mismatched[:5]


def _write() -> None:
    cases = [case for case, _want in json.loads(GOLDEN.read_text())["cases"]]
    rows = ",\n".join(
        "  " + json.dumps([case, out], separators=(",", ":"))
        for case, out in zip(cases, batch_outcomes(cases)))
    names = json.dumps([f.name for f in fields(ThroughputResult)])
    GOLDEN.write_text(
        '{"about": "ThroughputResult records and ConfigError texts per '
        'cell; floats as float.hex",\n'
        f' "fields": {names},\n'
        f' "cases": [\n{rows}\n ]}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
