"""The parallel cached sweep engine (repro.sweep)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro.sweep.engine as engine_mod
from repro.analysis import measure_throughput, search_grid
from repro.cli import main as cli_main
from repro.cluster import make_fc, make_tacc
from repro.errors import ConfigError
from repro.models import bert_64, tiny_model
from repro.sweep import (
    ResultCache,
    SweepSpec,
    cache_key,
    run_sweep,
    split_batch,
)


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        schemes=("gpipe", "dapple", "hanayo"),
        clusters=(make_fc(4),),
        models=(tiny_model(num_layers=16),),
        layouts=((4, 1), (2, 2)),
        total_batches=(8,),
        waves=(1, 2),
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def counter(monkeypatch):
    """Wrap the engine's measurement global with a lane counter: one
    entry per measured request."""
    lanes = []
    real = engine_mod.measure_throughput_batch

    def counted(requests, *args, **kwargs):
        lanes.extend(requests)
        return real(requests, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "measure_throughput_batch", counted)
    return lanes


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec()
        first = run_sweep(spec, cache=cache)
        assert first.stats.computed == first.stats.total > 0
        assert first.stats.cached == 0
        assert len(cache) == first.stats.total

        second = run_sweep(spec, cache=cache)
        assert second.stats.computed == 0
        assert second.stats.cached == second.stats.total
        assert [r.to_dict() | {"cached": False} for r in second.rows] == \
               [r.to_dict() | {"cached": False} for r in first.rows]
        assert all(r.cached for r in second.rows)

    def test_warm_cache_makes_zero_measure_calls(self, tmp_path, counter):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec()
        run_sweep(spec, cache=cache)
        assert len(counter) == len(spec.expand())
        counter.clear()
        table = run_sweep(spec, cache=cache)
        assert counter == []            # every cell served from disk
        assert table.stats.computed == 0

    def test_infeasible_cells_cached_too(self, tmp_path, counter):
        # chimera needs an even device count, so a (3, 1) layout passes
        # expansion but is rejected by the schedule builder — the
        # infeasible verdict must still be cached.
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec(schemes=("chimera",), waves=(1,),
                         layouts=((3, 1),))
        first = run_sweep(spec, cache=cache)
        assert first.stats.infeasible == first.stats.total == 1
        assert len(first.rows) == 0
        counter.clear()
        second = run_sweep(spec, cache=cache)
        assert counter == []
        assert second.stats.cached == 1 and second.stats.computed == 0

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec(schemes=("gpipe",), waves=(1,))
        first = run_sweep(spec, cache=cache)
        files = sorted((tmp_path / "c").glob("*.json"))
        assert len(files) == first.stats.total

        # three corruption modes: garbage bytes, valid-JSON-wrong-schema,
        # and an entry stored under a mismatched key
        files[0].write_text("{ not json !!!")
        files[1].write_text(json.dumps({"version": 999, "record": {}}))
        second = run_sweep(spec, cache=cache)
        assert second.stats.computed == 2
        assert second.stats.cached == first.stats.total - 2
        # the corrupt files were replaced with valid entries
        third = run_sweep(spec, cache=cache)
        assert third.stats.computed == 0
        for path in files:
            entry = json.loads(path.read_text())
            assert entry["key"] == path.stem

    def test_key_stability_across_processes(self, tmp_path):
        shape = dict(p=4, d=1, w=2, num_microbatches=4, microbatch_size=2)
        local = cache_key("hanayo", make_fc(4), tiny_model(), **shape)
        script = (
            "from repro.sweep import cache_key\n"
            "from repro.cluster import make_fc\n"
            "from repro.models import tiny_model\n"
            "print(cache_key('hanayo', make_fc(4), tiny_model(), p=4, d=1,"
            " w=2, num_microbatches=4, microbatch_size=2))\n"
        )
        keys = []
        for seed in ("0", "1", "31337"):
            env = os.environ | {"PYTHONHASHSEED": seed}
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, text=True,
                capture_output=True, check=True,
            )
            keys.append(out.stdout.strip())
        assert set(keys) == {local}

    def test_key_includes_capacity(self):
        """Capacity what-ifs must not share cells with default runs."""
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        capped = cache_key("gpipe", make_fc(4), tiny_model(), **shape,
                           capacity_bytes=10 * 2**30)
        assert base != capped

    def test_key_includes_contention(self):
        """Arbitrated and uncontended runs must not share cells."""
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        arbitrated = cache_key("gpipe", make_fc(4), tiny_model(), **shape,
                               contention=True)
        assert base != arbitrated

    def test_key_includes_code_fingerprint(self, monkeypatch):
        """Editing measurement code must invalidate cached cells."""
        import repro.sweep.cache as cache_mod
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        monkeypatch.setattr(cache_mod, "code_fingerprint",
                            lambda: "different-simulator-code")
        assert cache_key("gpipe", make_fc(4), tiny_model(), **shape) != base

    def test_fingerprint_covers_execution_semantics(self):
        """Cached cells must self-invalidate when execution semantics
        change: the action/program compiler and the event-driven core
        are part of every cache key, not just cost-model code."""
        import pathlib

        import repro
        from repro.sweep.cache import fingerprint_files

        root = pathlib.Path(repro.__file__).parent
        covered = {p.relative_to(root).as_posix()
                   for p in fingerprint_files()}
        for required in (
            "actions/compiler.py",
            "actions/program.py",
            # resource deltas are measurement semantics: editing the
            # alloc/free model or the watermark tracker must turn a
            # durable cache into misses
            "actions/resources.py",
            # the lowering pass IS the execution representation now —
            # an edited ExecutablePlan encoding must invalidate caches
            "actions/lowering.py",
            "runtime/events.py",
            "runtime/events_ref.py",
            "runtime/memory.py",
            "runtime/simulator.py",
            "runtime/costs.py",
            # the lockstep stepper measures real sweep cells — its
            # arithmetic is execution semantics like the scalar core
            "runtime/batched.py",
            "cluster/comm_model.py",
            # both measurement harnesses and the plan-sharing layer
            "analysis/throughput.py",
            "analysis/hybrid.py",
            "analysis/plans.py",
            # the ordering-recompile path is execution semantics too:
            # a synthesized schedule simulates through it
            "actions/reorder.py",
            "synthesis/legality.py",
            "synthesis/search.py",
            "synthesis/serialize.py",
        ):
            assert required in covered, required

    def test_fingerprint_tracks_source_content(self, monkeypatch, tmp_path):
        """The hash is over file *content*, so editing any covered file
        flips it (checked via the un-memoized function)."""
        import repro.sweep.cache as cache_mod

        source = tmp_path / "events.py"
        source.write_text("SEMANTICS = 1\n")
        monkeypatch.setattr(cache_mod, "fingerprint_files",
                            lambda: [source])
        first = cache_mod.code_fingerprint.__wrapped__()
        source.write_text("SEMANTICS = 2\n")
        assert cache_mod.code_fingerprint.__wrapped__() != first

    def test_interrupted_sweep_keeps_finished_cells(self, tmp_path,
                                                    monkeypatch):
        """Cells are persisted as they finish, not at the end."""
        import repro.sweep.engine as em
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec(schemes=("gpipe", "dapple"), waves=(1,),
                         layouts=((4, 1),))
        real = em.measure_throughput_batch
        calls = []

        def explode_on_second(requests):
            # one cluster: every unit is a one-lane call
            calls.append(requests)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(requests)

        monkeypatch.setattr(em, "measure_throughput_batch",
                            explode_on_second)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, cache=cache)
        assert len(cache) == 1          # first cell survived the abort
        monkeypatch.setattr(em, "measure_throughput_batch", real)
        table = run_sweep(spec, cache=cache)
        assert table.stats.cached == 1 and table.stats.computed == 1

    def test_key_sensitivity(self):
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        assert base != cache_key("dapple", make_fc(4), tiny_model(), **shape)
        assert base != cache_key("gpipe", make_fc(8), tiny_model(), **shape)
        assert base != cache_key("gpipe", make_tacc(4), tiny_model(), **shape)
        assert base != cache_key("gpipe", make_fc(4),
                                 tiny_model(hidden=64), **shape)
        assert base != cache_key("gpipe", make_fc(4), tiny_model(),
                                 **(shape | {"microbatch_size": 4}))
        assert base != cache_key("gpipe", make_fc(4), tiny_model(),
                                 **shape, overlap="model")
        assert base != cache_key("gpipe", make_fc(4), tiny_model(),
                                 **shape, tp=2)


class TestPlanCache:
    """The in-process plan cache: structurally identical cells share one
    lowered plan; cost-only axes (the cluster) re-time it."""

    def setup_method(self):
        from repro.analysis import plan_cache
        plan_cache().clear()

    def _measure(self, cluster, **kw):
        args = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        args.update(kw)
        return measure_throughput("hanayo", cluster,
                                  tiny_model(num_layers=16), **args)

    def test_cost_only_axis_hits_the_plan_cache(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        self._measure(make_fc(4))
        assert (cache.hits, cache.misses) == (0, 1)
        # same structure, different cluster: cost-only change -> hit
        self._measure(make_tacc(4))
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_structural_axis_misses(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        self._measure(make_fc(4))
        self._measure(make_fc(4), num_microbatches=8, microbatch_size=1)
        self._measure(make_fc(4), d=2, p=2)
        assert cache.hits == 0 and cache.misses == 3
        assert len(cache) == 3

    def test_repeat_same_cell_hits(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        first = self._measure(make_fc(4))
        second = self._measure(make_fc(4))
        assert cache.hits == 1 and cache.misses == 1
        assert second.seq_per_s == first.seq_per_s
        assert second.peak_mem_bytes == first.peak_mem_bytes

    def test_retimed_hit_equals_cold_measurement(self):
        """A plan-cache hit must change nothing about the numbers: the
        re-timed cached plan and a from-scratch compile agree exactly."""
        from repro.analysis import plan_cache
        self._measure(make_fc(4))               # warm the plan cache
        warm = self._measure(make_tacc(4))      # hit, re-timed
        plan_cache().clear()
        cold = self._measure(make_tacc(4))      # cold recompile
        assert warm.seq_per_s == cold.seq_per_s
        assert warm.iteration_s == cold.iteration_s
        assert warm.bubble_ratio == cold.bubble_ratio
        assert warm.peak_mem_bytes == cold.peak_mem_bytes
        assert warm.sync_s == cold.sync_s

    def test_hybrid_cells_share_plans_across_clusters(self):
        from repro.analysis import (
            HybridLayout,
            measure_hybrid_throughput,
            plan_cache,
        )
        cache = plan_cache()
        layout = HybridLayout(tp=2, p=2, d=1)
        kw = dict(num_microbatches=4, microbatch_size=1)
        a = measure_hybrid_throughput("gpipe", make_fc(4),
                                      tiny_model(num_layers=16), layout,
                                      **kw)
        b = measure_hybrid_throughput("gpipe", make_tacc(4),
                                      tiny_model(num_layers=16), layout,
                                      **kw)
        assert cache.hits == 1 and cache.misses == 1
        assert a.seq_per_s != b.seq_per_s  # the clusters do differ

    def test_plan_key_proves_cross_cluster_sharing_is_safe(self):
        """The cache's core assumption, verified through the content
        hash: one cell shape compiled *independently* against different
        clusters (and capacities) lowers to byte-identical structure —
        equal ``plan_key`` — so re-timing a shared plan is exact.  A
        structural axis must flip the key."""
        from repro.actions import ExecutablePlan
        from repro.analysis import compile_cluster_program
        from repro.models.costs import stage_costs
        from repro.schedules import build_schedule
        from repro.config import PipelineConfig

        def key_for(cluster, b=4):
            cfg = PipelineConfig(scheme="hanayo", num_devices=4,
                                 num_microbatches=b, data_parallel=2)
            sched = build_schedule(cfg)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            return ExecutablePlan.lower(program).plan_key

        assert key_for(make_fc(8)) == key_for(make_tacc(8))
        assert key_for(make_fc(8)) != key_for(make_fc(8), b=8)

    def test_capacity_is_not_a_structural_axis(self):
        """Capacity what-ifs re-time the cached plan (enforcement is an
        execute-time argument, never compiled into the structure)."""
        from repro.analysis import plan_cache
        cache = plan_cache()
        self._measure(make_fc(4))
        self._measure(make_fc(4), capacity_bytes=64 * 2**30)
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_bound(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        old_max, cache.maxsize = cache.maxsize, 2
        try:
            self._measure(make_fc(4))
            self._measure(make_fc(4), num_microbatches=8,
                          microbatch_size=1)
            self._measure(make_fc(4), d=2, p=2)
            assert len(cache) == 2
        finally:
            cache.maxsize = old_max

    def test_lru_order_and_evictions_counter(self):
        """A hit refreshes recency, so eviction discards the *least*
        recently used structure — and the counter records it."""
        from repro.analysis import plan_cache
        cache = plan_cache()
        old_max, cache.maxsize = cache.maxsize, 2
        try:
            self._measure(make_fc(4))                        # A: miss
            self._measure(make_fc(4), num_microbatches=8,
                          microbatch_size=1)                 # B: miss
            self._measure(make_fc(4))                        # A: hit -> MRU
            self._measure(make_fc(4), d=2, p=2)              # C evicts B
            assert cache.evictions == 1
            assert (cache.hits, cache.misses) == (1, 3)
            self._measure(make_fc(4))                        # A survived
            assert cache.hits == 2
            assert "1 evictions" in cache.describe()
        finally:
            cache.maxsize = old_max


class TestBatchUnits:
    """Structure-sharing misses ride the lockstep batch path."""

    def _misses(self, spec):
        return [(i, p, spec.clusters[p.cluster_index],
                 spec.models[p.model_index], spec.overlap,
                 spec.enforce_memory, spec.capacity_bytes)
                for i, p in enumerate(spec.expand())]

    def test_cluster_lanes_form_one_unit(self):
        spec = tiny_spec(clusters=(make_fc(4), make_tacc(4)))
        units = engine_mod._batch_units(self._misses(spec))
        assert units and all(len(u) == 2 for u in units)
        # a unit's cells agree on every structural axis
        for unit in units:
            points = [job[1] for job in unit]
            assert len({(pt.scheme, pt.p, pt.num_microbatches,
                         pt.microbatch_size, pt.d, pt.w)
                        for pt in points}) == 1
        # and no cell is dropped or duplicated
        assert sorted(job[0] for u in units for job in u) == \
               list(range(len(spec.expand())))

    def test_single_cluster_units_are_singletons(self):
        units = engine_mod._batch_units(self._misses(tiny_spec()))
        assert units and all(len(u) == 1 for u in units)

    def test_batched_rows_match_scalar(self, monkeypatch):
        """A two-cluster sweep (batch units) reproduces the per-cluster
        scalar sweeps cell for cell, and really took the batch path."""
        batch_calls = []
        real = engine_mod.measure_throughput_batch

        def counted(requests):
            batch_calls.append(len(requests))
            return real(requests)

        monkeypatch.setattr(engine_mod, "measure_throughput_batch",
                            counted)
        spec = tiny_spec(clusters=(make_fc(4), make_tacc(4)))
        batched = run_sweep(spec)
        assert batch_calls and all(n == 2 for n in batch_calls)

        reference = {}
        for cl in spec.clusters:
            for row in run_sweep(tiny_spec(clusters=(cl,))).rows:
                key = (row.scheme, row.cluster, row.p, row.d, row.w,
                       row.num_microbatches, row.microbatch_size)
                reference[key] = row.to_dict()
        assert len(batched.rows) == len(reference)
        for row in batched.rows:
            key = (row.scheme, row.cluster, row.p, row.d, row.w,
                   row.num_microbatches, row.microbatch_size)
            assert row.to_dict() == reference[key]

    def test_contention_sweep_matches_scalar(self):
        """A contention sweep's batch units reproduce the per-cell
        scalar contention measurements — divergent lanes go through the
        time-ordered replay, not back to the scalar loop."""
        from repro.analysis import measure_throughput
        from repro.config import RunConfig

        spec = tiny_spec(clusters=(make_fc(4), make_tacc(4)),
                         contention=True)
        table = run_sweep(spec)
        assert table.rows
        run = RunConfig(contention=True)
        clusters = {c.name: c for c in spec.clusters}
        for row in table.rows:
            want = measure_throughput(
                row.scheme, clusters[row.cluster], spec.models[0],
                p=row.p, d=row.d, w=row.w,
                num_microbatches=row.num_microbatches,
                microbatch_size=row.microbatch_size, run=run,
            )
            assert row.result.seq_per_s == want.seq_per_s
            assert row.result.bubble_ratio == want.bubble_ratio
            assert row.result.iteration_s == want.iteration_s
            assert row.result.peak_mem_bytes == want.peak_mem_bytes


class TestEngine:
    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert [r.to_dict() for r in serial.rows] == \
               [r.to_dict() for r in parallel.rows]

    def test_parallel_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec()
        run_sweep(spec, cache=cache, workers=2)
        warm = run_sweep(spec, cache=cache, workers=2)
        assert warm.stats.computed == 0

    def test_parity_with_direct_measurement(self):
        """Engine rows must equal direct measure_throughput calls."""
        cluster, model = make_fc(4), tiny_model(num_layers=16)
        cells = search_grid("hanayo", cluster, model,
                            layouts=((4, 1), (2, 2)), total_batch=8,
                            waves=(1, 2))
        assert cells
        for cell in cells:
            shape = split_batch(8, cell.d, cell.p, "hanayo")
            direct = measure_throughput(
                "hanayo", cluster, model, p=cell.p, d=cell.d, w=cell.w,
                num_microbatches=shape[0], microbatch_size=shape[1],
            )
            assert direct.seq_per_s == pytest.approx(cell.result.seq_per_s)
            assert direct.bubble_ratio == pytest.approx(
                cell.result.bubble_ratio)
            assert direct.peak_mem_bytes == cell.result.peak_mem_bytes

    def test_search_grid_oversized_layout_raises(self):
        with pytest.raises(ConfigError, match="exceeds"):
            search_grid("gpipe", make_fc(4), tiny_model(),
                        layouts=((4, 2),), total_batch=8)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="empty"):
            tiny_spec(schemes=())
        with pytest.raises(ConfigError, match="unknown scheme"):
            tiny_spec(schemes=("warp-drive",))
        with pytest.raises(ConfigError, match="layout"):
            tiny_spec(layouts=((0, 1),))
        with pytest.raises(ConfigError, match="overlap"):
            tiny_spec(overlap="guess")
        with pytest.raises(ConfigError, match="tensor-parallel"):
            tiny_spec(tensor_parallel=(0,))


class TestTable:
    @pytest.fixture(scope="class")
    def table(self):
        return run_sweep(tiny_spec())

    def test_filter_and_best(self, table):
        hanayo = table.filter(scheme="hanayo")
        assert hanayo.rows and all(r.scheme == "hanayo" for r in hanayo)
        best = table.best(scheme="hanayo")
        assert best.throughput == max(r.throughput for r in hanayo)
        with pytest.raises(ConfigError, match="unknown sweep filter"):
            table.filter(nonsense=1)
        with pytest.raises(ConfigError, match="no live sweep cell"):
            table.best(p=64)

    def test_best_per_scheme(self, table):
        winners = table.best_per("scheme")
        assert set(winners) == {"gpipe", "dapple", "hanayo"}
        for scheme, row in winners.items():
            assert row.throughput == table.best(scheme=scheme).throughput

    def test_csv_roundtrip(self, table, tmp_path):
        import csv as csv_mod
        path = tmp_path / "sweep.csv"
        table.to_csv(path)
        with open(path) as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == len(table.rows)
        assert float(rows[0]["seq_per_s"]) == pytest.approx(
            table.rows[0].result.seq_per_s)

    def test_json_roundtrip(self, table, tmp_path):
        path = tmp_path / "sweep.json"
        table.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["stats"]["total"] == table.stats.total
        assert len(payload["rows"]) == len(table.rows)

    def test_format_marks_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec(schemes=("gpipe",), waves=(1,))
        run_sweep(spec, cache=cache)
        warm = run_sweep(spec, cache=cache)
        text = warm.format(title="warm")
        assert "warm" in text and "*" in text


class TestCLI:
    def run_cli(self, capsys, *extra) -> str:
        rc = cli_main([
            "sweep", "--clusters", "FC", "--model", "tiny",
            "-n", "4", "--batch", "8", "--layouts", "4x1,2x2",
            "--schemes", "gpipe", "dapple", "hanayo", *extra,
        ])
        assert rc == 0
        return capsys.readouterr().out

    def test_parallel_multi_scheme_grid(self, capsys, tmp_path):
        out = self.run_cli(capsys, "--cache", str(tmp_path / "c"),
                           "-j", "2", "--csv", str(tmp_path / "s.csv"))
        assert "gpipe" in out and "dapple" in out and "hanayo" in out
        assert "0 cached" in out
        assert (tmp_path / "s.csv").exists()

    def test_second_invocation_zero_measure_calls(self, capsys, tmp_path,
                                                  counter):
        """Acceptance: warm re-run of `repro sweep` does no simulation."""
        self.run_cli(capsys, "--cache", str(tmp_path / "c"))
        assert len(counter) > 0
        counter.clear()
        out = self.run_cli(capsys, "--cache", str(tmp_path / "c"))
        assert counter == []
        assert "0 computed" in out

    def test_bad_layouts_rejected(self, capsys):
        rc = cli_main(["sweep", "--layouts", "8by1"])
        assert rc == 2
        assert "bad layout" in capsys.readouterr().err

    def test_oversized_explicit_layout_errors(self, capsys):
        rc = cli_main(["sweep", "--clusters", "FC", "--model", "tiny",
                       "-n", "4", "--batch", "8", "--layouts", "8x1"])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err
