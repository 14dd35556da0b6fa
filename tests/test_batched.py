"""Lockstep batched execution parity (runtime/batched.py).

The batched stepper is only allowed to change *cost*, never meaning:
every lane of an ``execute_batch`` must be bit-identical — all eight
``EventResult`` fields, ``==`` not approx — to running that lane alone
through the scalar ``execute_plan``.  These tests pin that across every
schedule family × prefetch mode, under capacity enforcement with mixed
OOM lanes, with gradient-sync collectives compiled in, and for ragged
batch widths.
"""

from __future__ import annotations

import pytest

from repro.actions import (
    ExecutablePlan,
    RetimeBuffers,
    StageResources,
    compile_program,
)
from repro.analysis import compile_cluster_program
from repro.cluster import CommModel, make_fc, make_pc, make_tacc
from repro.config import CostConfig, PipelineConfig, RunConfig
from repro.errors import ConfigError, OutOfMemoryError, SchedulingError
from repro.models import tiny_model
from repro.models.costs import stage_costs
from repro.runtime import (
    AbstractCosts,
    ConcreteCosts,
    PlanBatch,
    execute_batch,
    execute_many,
    execute_plan,
)
from repro.schedules import build_schedule

from conftest import ALL_SCHEMES, make_config, scheme_id

P = B = 4

#: four lanes with genuinely different arithmetic — asymmetric ratios,
#: zero comm, comm-dominated — so lockstep masking bugs cannot hide
#: behind lanes that agree numerically
LANE_COSTS = (
    CostConfig(t_f=1.0, t_b=2.0, t_c=0.25),
    CostConfig(t_f=1.3, t_b=2.1, t_c=0.1),
    CostConfig(t_f=0.7, t_b=1.9, t_c=0.5),
    CostConfig(t_f=1.0, t_b=1.0, t_c=0.0),
)


def lowered(scheme, kw, prefetch=True, resources=None):
    cfg = make_config(scheme, P, B, **kw)
    program = compile_program(build_schedule(cfg), prefetch=prefetch,
                              resources=resources)
    return ExecutablePlan.lower(program)


def lanes_for(plan, n=len(LANE_COSTS)):
    """``n`` retimes of one structure, cycling the varied cost table."""
    stages = plan.program.num_stages
    return [plan.retime(AbstractCosts(LANE_COSTS[i % len(LANE_COSTS)],
                                      P, stages))
            for i in range(n)]


def assert_result_equal(got, want):
    """All eight EventResult fields, exact equality."""
    assert got.timeline == want.timeline
    assert got.recv_wait == want.recv_wait
    assert got.comm == want.comm
    assert got.order == want.order
    assert got.mem_peak == want.mem_peak
    assert got.mem_events == want.mem_events
    assert got.collectives == want.collectives
    assert got.device_end == want.device_end


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestLanewiseParity:
    def test_every_lane_bit_equals_scalar(self, param, prefetch):
        scheme, kw = param
        plans = lanes_for(lowered(scheme, kw, prefetch=prefetch))
        run = RunConfig(prefetch=prefetch)
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for plan, got, err in zip(plans, batch.results, batch.errors):
            assert err is None
            assert_result_equal(got, execute_plan(plan, run))


class TestCapacityParity:
    """Mixed OOM/surviving lanes under capacity enforcement."""

    def _annotated(self, scheme="dapple", kw={}):
        stages = build_schedule(make_config(scheme, P, B, **kw)).num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        return lowered(scheme, kw, resources=res)

    def _mixed(self, plans):
        """Capacities that OOM some lanes and clear others."""
        run = RunConfig()
        peaks = [max(execute_plan(p, run).mem_peak.values())
                 for p in plans]
        caps = []
        for k, peak in enumerate(peaks):
            caps.append(int(peak) - 1 if k % 2 else int(peak) + 1)
        return caps

    def test_oom_lanes_match_scalar_error(self):
        plans = lanes_for(self._annotated())
        caps = self._mixed(plans)
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans, caps), run)
        saw_oom = saw_ok = False
        for plan, cap, got, err in zip(plans, caps, batch.results,
                                       batch.errors):
            try:
                want = execute_plan(plan, run, capacity_bytes=cap)
            except OutOfMemoryError as exc:
                saw_oom = True
                assert got is None
                assert isinstance(err, OutOfMemoryError)
                assert (err.device, err.peak_bytes, err.capacity_bytes) \
                    == (exc.device, exc.peak_bytes, exc.capacity_bytes)
                assert str(err) == str(exc)
            else:
                saw_ok = True
                assert err is None
                assert_result_equal(got, want)
        assert saw_oom and saw_ok  # the fixture really mixed verdicts

    def test_uncapped_lanes_ride_along(self):
        """``None`` capacity disarms enforcement for that lane only."""
        plans = lanes_for(self._annotated())
        caps = [None, 1, None, 1]  # lanes 1 and 3 cannot fit 1 byte
        batch = execute_batch(PlanBatch.from_plans(plans, caps))
        assert [e is not None for e in batch.errors] == \
               [False, True, False, True]
        for plan, got, cap in zip(plans[::2], batch.results[::2],
                                  caps[::2]):
            assert_result_equal(got, execute_plan(plan, RunConfig(),
                                                  capacity_bytes=cap))


class TestCollectiveParity:
    """Gradient-sync rings compiled in (concrete clusters, d=2)."""

    @pytest.mark.parametrize("factory", [make_fc, make_tacc, make_pc],
                             ids=["FC", "TACC", "PC"])
    def test_dp_collectives_bit_equal(self, factory):
        cfg = PipelineConfig(scheme="hanayo", num_devices=P,
                             num_microbatches=B, data_parallel=2)
        sched = build_schedule(cfg)
        plans = []
        for size in (8, 16):
            cluster = factory(size)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            plans.append(ExecutablePlan.lower(program).retime(
                ConcreteCosts(costs, CommModel.from_cluster(cluster))))
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for plan, got in zip(plans, batch.results):
            want = execute_plan(plan, run)
            assert want.collectives  # the rings really are in the plan
            assert_result_equal(got, want)


class TestRaggedBatches:
    @pytest.mark.parametrize("n", [1, 5], ids=["N1", "N5"])
    def test_ragged_width_parity(self, n):
        plans = lanes_for(lowered("interleaved", {"num_waves": 2}), n=n)
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        assert len(batch.results) == n
        for plan, got in zip(plans, batch.results):
            assert_result_equal(got, execute_plan(plan, run))


class TestLeanDetail:
    def test_lean_is_an_exact_subset(self):
        plans = lanes_for(lowered("dapple", {}))
        run = RunConfig()
        full = execute_batch(PlanBatch.from_plans(plans), run)
        lean = execute_batch(PlanBatch.from_plans(plans), run,
                             detail="lean")
        for f, l in zip(full.results, lean.results):
            assert l.timeline == f.timeline
            assert l.recv_wait == f.recv_wait
            assert l.collectives == f.collectives
            assert l.mem_peak == f.mem_peak
            assert l.device_end == f.device_end
            assert l.comm == [] and l.order == {} and l.mem_events == []


class TestExecuteMany:
    def test_groups_by_structure_and_preserves_item_order(self):
        a = lanes_for(lowered("gpipe", {}), n=2)
        b = lanes_for(lowered("dapple", {}), n=2)
        solo = lanes_for(lowered("gems", {}), n=1)
        items = [(a[0], None), (b[0], None), (a[1], None),
                 (solo[0], None), (b[1], None)]
        run = RunConfig()
        out = execute_many(items, run)
        assert len(out.results) == len(items)
        for (plan, _), got, err in zip(items, out.results, out.errors):
            assert err is None
            assert_result_equal(got, execute_plan(plan, run))

    def test_full_detail_contention_batches_time_ordered(self):
        """Full-detail contention results interleave comm/mem logs in
        driver order — the time-ordered vector replay produces them
        in-batch now; no lane may take a ``contention`` fallback."""
        from repro import profiling

        stats = profiling.batching_stats()
        before_scalar = stats.scalar_cells
        before_rec = stats.recovered_lanes
        plans = lanes_for(lowered("dapple", {}), n=2)
        run = RunConfig(contention=True)
        out = execute_many([(p, None) for p in plans], run)
        assert "contention" not in stats.fallback_reasons
        assert stats.scalar_cells == before_scalar
        assert stats.recovered_lanes == before_rec + 2
        for plan, got in zip(plans, out.results):
            assert_result_equal(got, execute_plan(plan, run))

    def test_congruent_programs_share_one_batch(self):
        """Two separately-compiled copies of one structure (distinct
        program objects, equal congruence keys) stack into one batch."""
        from repro import profiling

        stats = profiling.batching_stats()
        a, b = lowered("gpipe", {}), lowered("gpipe", {})
        assert a.program is not b.program
        assert a.congruence_key == b.congruence_key
        stages = a.program.num_stages
        lanes = [a.retime(AbstractCosts(LANE_COSTS[0], P, stages)),
                 b.retime(AbstractCosts(LANE_COSTS[1], P, stages))]
        run = RunConfig()
        batches, scalars = stats.batches, stats.scalar_cells
        out = execute_many([(p, None) for p in lanes], run)
        assert stats.batches == batches + 1      # one lockstep batch,
        assert stats.scalar_cells == scalars     # no singleton fallback
        for plan, got in zip(lanes, out.results):
            assert_result_equal(got, execute_plan(plan, run))


class TestContentionParity:
    """``contention=True`` lanes stay in the batch at ``detail="lean"``
    and remain bit-identical to the scalar time-ordered driver."""

    @pytest.mark.parametrize("prefetch", [True, False],
                             ids=["pf", "nopf"])
    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_lean_contention_bit_equals_scalar(self, param, prefetch):
        scheme, kw = param
        plans = lanes_for(lowered(scheme, kw, prefetch=prefetch))
        run = RunConfig(prefetch=prefetch, contention=True)
        batch = execute_batch(PlanBatch.from_plans(plans), run,
                              detail="lean")
        for plan, got, err in zip(plans, batch.results, batch.errors):
            assert err is None
            assert_result_equal(got, execute_plan(plan, run,
                                                  detail="lean"))

    @pytest.mark.parametrize("factory", [make_fc, make_tacc, make_pc],
                             ids=["FC", "TACC", "PC"])
    def test_contention_collectives_bit_equal_both_cores(self, factory):
        """Arbitrated DP rings: lean lanes must match the scalar core
        and (through it) the reference interpreter."""
        from repro.runtime import execute_program_reference

        cfg = PipelineConfig(scheme="hanayo", num_devices=P,
                             num_microbatches=B, data_parallel=2)
        sched = build_schedule(cfg)
        cells = []
        for size in (8, 16):
            cluster = factory(size)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            oracle = ConcreteCosts(costs, CommModel.from_cluster(cluster))
            cells.append((program, oracle,
                          ExecutablePlan.lower(program).retime(oracle)))
        run = RunConfig(contention=True)
        plans = [plan for _, _, plan in cells]
        batch = execute_batch(PlanBatch.from_plans(plans), run,
                              detail="lean")
        for (program, oracle, plan), got in zip(cells, batch.results):
            want = execute_plan(plan, run, detail="lean")
            assert want.collectives  # the rings really are in the plan
            assert_result_equal(got, want)
            ref = execute_program_reference(program, oracle, run)
            assert got.timeline.spans == ref.timeline.spans
            assert got.recv_wait == ref.recv_wait
            assert got.collectives == ref.collectives
            assert got.device_end == ref.device_end

    def test_contention_lanes_actually_batch(self):
        """The fig11/contention grids must not silently de-batch."""
        from repro import profiling

        stats = profiling.batching_stats()
        plans = lanes_for(lowered("dapple", {}))
        run = RunConfig(contention=True)
        batches = stats.batches
        out = execute_batch(PlanBatch.from_plans(plans), run,
                            detail="lean")
        assert stats.batches == batches + 1
        assert all(err is None for err in out.errors)


class TestTimeOrderedReplay:
    """The time-ordered vector replay: contention lanes whose wire
    grants leave structural order, and full-detail contention, batch
    bit-identically to the scalar time-ordered driver."""

    @pytest.mark.parametrize("prefetch", [True, False],
                             ids=["pf", "nopf"])
    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_full_detail_contention_bit_equals_scalar(self, param,
                                                      prefetch):
        """Driver-order comm and mem logs, lane for lane, all fields."""
        scheme, kw = param
        plans = lanes_for(lowered(scheme, kw, prefetch=prefetch))
        run = RunConfig(prefetch=prefetch, contention=True)
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for plan, got, err in zip(plans, batch.results, batch.errors):
            assert err is None
            assert_result_equal(got, execute_plan(plan, run))

    @pytest.mark.parametrize("factory", [make_fc, make_tacc, make_pc],
                             ids=["FC", "TACC", "PC"])
    def test_divergent_waves_recovered_both_cores(self, factory):
        """hanayo-w2 on shared-link concrete clusters — the
        known-divergent wave interleaving whose wire grants reorder
        against structural order — recovers in-batch (zero scalar
        fallbacks) and matches both event cores."""
        from repro import profiling
        from repro.runtime import execute_program_reference

        stats = profiling.batching_stats()
        cfg = PipelineConfig(scheme="hanayo", num_devices=P,
                             num_microbatches=B, num_waves=2,
                             data_parallel=2)
        sched = build_schedule(cfg)
        cells = []
        for size in (8, 16):
            cluster = factory(size)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            oracle = ConcreteCosts(costs, CommModel.from_cluster(cluster))
            cells.append((program, oracle,
                          ExecutablePlan.lower(program).retime(oracle)))
        run = RunConfig(contention=True)
        plans = [plan for _, _, plan in cells]
        scalar_before = stats.scalar_cells
        recovered_before = stats.recovered_lanes
        for detail in ("lean", "full"):
            batch = execute_batch(PlanBatch.from_plans(plans), run,
                                  detail=detail)
            for (program, oracle, plan), got in zip(cells,
                                                    batch.results):
                want = execute_plan(plan, run, detail=detail)
                assert_result_equal(got, want)
                ref = execute_program_reference(program, oracle, run)
                assert got.timeline.spans == ref.timeline.spans
                assert got.recv_wait == ref.recv_wait
                assert got.collectives == ref.collectives
                assert got.device_end == ref.device_end
        assert stats.scalar_cells == scalar_before  # no lane left
        assert stats.recovered_lanes > recovered_before

    def test_mixed_recovered_and_fallback_lanes(self):
        """One execute_many with a recovered contention group and a
        singleton scalar lane: outcomes stay item-ordered and each
        path's accounting is attributed correctly."""
        from repro import profiling

        stats = profiling.batching_stats()
        group = lanes_for(lowered("hanayo", {"num_waves": 2}), n=3)
        solo = lanes_for(lowered("gems", {}), n=1)
        items = [(group[0], None), (solo[0], None), (group[1], None),
                 (group[2], None)]
        run = RunConfig(contention=True)
        singleton_before = stats.fallback_reasons.get("singleton", 0)
        recovered_before = stats.recovered_lanes
        out = execute_many(items, run)
        assert stats.fallback_reasons.get("singleton", 0) == \
            singleton_before + 1
        assert stats.recovered_lanes == recovered_before + 3
        for (plan, _), got, err in zip(items, out.results, out.errors):
            assert err is None
            assert_result_equal(got, execute_plan(plan, run))

    @pytest.mark.parametrize("detail", ["lean", "full"])
    def test_mid_run_oom_under_time_ordered_replay(self, detail):
        """Mid-run capacity aborts stay in-batch under contention: the
        abort device/peak attribution follows each lane's own pop
        order, exactly as the scalar time-ordered driver."""
        scheme, kw = "hanayo", {"num_waves": 2}
        stages = build_schedule(make_config(scheme, P, B, **kw)) \
            .num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        plans = lanes_for(lowered(scheme, kw, resources=res))
        run = RunConfig(contention=True)
        peaks = [max(execute_plan(p, RunConfig()).mem_peak.values())
                 for p in plans]
        # lane 0: statically rejected; lane 1: aborts mid-run; the
        # rest clear (one uncapped, one just-fitting)
        caps = [1, int(peaks[1]) - 1, None, int(peaks[3]) + 1]
        batch = execute_batch(PlanBatch.from_plans(plans, caps), run,
                              detail=detail)
        saw_oom = saw_ok = False
        for plan, cap, got, err in zip(plans, caps, batch.results,
                                       batch.errors):
            try:
                want = execute_plan(plan, run, capacity_bytes=cap,
                                    detail=detail)
            except OutOfMemoryError as exc:
                saw_oom = True
                assert got is None
                assert isinstance(err, OutOfMemoryError)
                assert (err.device, err.peak_bytes, err.capacity_bytes) \
                    == (exc.device, exc.peak_bytes, exc.capacity_bytes)
                assert str(err) == str(exc)
            else:
                saw_ok = True
                assert err is None
                assert_result_equal(got, want)
        assert saw_oom and saw_ok

    def test_aborted_lane_keeps_lazy_cost_contract(self):
        """A mid-run-aborting contention lane resolves lazy compute
        costs only up to (and including) its aborting compute; a
        statically-rejected lane resolves none."""
        scheme, kw = "dapple", {}
        stages = build_schedule(make_config(scheme, P, B, **kw)) \
            .num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        base = lowered(scheme, kw, resources=res)
        probe = lanes_for(base)
        peak = max(execute_plan(probe[1], RunConfig()).mem_peak.values())
        caps = [1, int(peak) - 1, None, None]
        plans = lanes_for(base)  # fresh lanes: no probe-resolved costs
        execute_batch(PlanBatch.from_plans(plans, caps),
                      RunConfig(contention=True))
        assert all(c is None for c in plans[0].comp_cost)
        resolved = sum(c is not None for c in plans[1].comp_cost)
        assert 0 < resolved < len(plans[1].comp_cost)
        assert all(c is not None for c in plans[2].comp_cost)


class TestCongruentGroups:
    """Lanes of *different programs* with equal congruence keys batch
    as one group with per-lane structural state (recompute on/off)."""

    def _recompute_pair(self):
        cfg = make_config("dapple", P, B)
        stages = build_schedule(cfg).num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        plain = lowered("dapple", {}, resources=res)
        rec_prog = plain.program.with_resources(
            plain.program.resources.with_recompute_from(0))
        return plain, ExecutablePlan.lower(rec_prog)

    def test_recompute_toggle_lanes_batch_and_match(self):
        plain, rec = self._recompute_pair()
        assert plain.congruence_key == rec.congruence_key
        stages = plain.program.num_stages
        plans = [plain.retime(AbstractCosts(LANE_COSTS[0], P, stages)),
                 rec.retime(AbstractCosts(LANE_COSTS[1], P, stages)),
                 plain.retime(AbstractCosts(LANE_COSTS[2], P, stages)),
                 rec.retime(AbstractCosts(LANE_COSTS[3], P, stages))]
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for plan, got, err in zip(plans, batch.results, batch.errors):
            assert err is None
            assert_result_equal(got, execute_plan(plan, run))

    def test_congruent_mem_verdicts_are_per_lane(self):
        """Capacity verdicts must come from each lane's *own* memory
        trace — the recompute lane's watermarks differ from the head's."""
        plain, rec = self._recompute_pair()
        stages = plain.program.num_stages
        plans = [plain.retime(AbstractCosts(LANE_COSTS[0], P, stages)),
                 rec.retime(AbstractCosts(LANE_COSTS[1], P, stages))]
        run = RunConfig()
        peaks = [max(execute_plan(p, run).mem_peak.values())
                 for p in plans]
        caps = [int(peaks[0]) + 1, int(peaks[1]) - 1]
        batch = execute_batch(PlanBatch.from_plans(plans, caps), run)
        assert batch.errors[0] is None
        assert isinstance(batch.errors[1], OutOfMemoryError)
        with pytest.raises(OutOfMemoryError) as exc_info:
            execute_plan(plans[1], run, capacity_bytes=caps[1])
        assert str(batch.errors[1]) == str(exc_info.value)
        assert_result_equal(batch.results[0],
                            execute_plan(plans[0], run,
                                         capacity_bytes=caps[0]))


class TestHybridTPParity:
    """Hybrid TP∈{2,4} × DP∈{1,2} lanes through the batched stepper,
    pinned against both event cores."""

    @pytest.mark.parametrize("tp", [2, 4], ids=["tp2", "tp4"])
    @pytest.mark.parametrize("d", [1, 2], ids=["dp1", "dp2"])
    def test_hybrid_lanes_bit_equal_both_cores(self, tp, d):
        from repro.analysis import (
            HybridLayout,
            build_hybrid_simulation,
            plan_cache,
        )
        from repro.runtime import execute_program_reference

        plan_cache().clear()
        layout = HybridLayout(tp=tp, p=2, d=d)
        run = RunConfig()
        cells = [
            build_hybrid_simulation("dapple", make_fc(size),
                                    tiny_model(num_layers=16), layout,
                                    B, run=run)
            for size in (layout.devices, 2 * layout.devices)
        ]
        plans = [cell.plan for cell in cells]
        # cost-only lanes share the compiled structure...
        assert plans[0].program is plans[1].program
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for cell, got, err in zip(cells, batch.results, batch.errors):
            assert err is None
            want = execute_plan(cell.plan, run)
            assert want.collectives  # TP boundary all-reduces compiled in
            assert_result_equal(got, want)
            ref = execute_program_reference(cell.program, cell.oracle,
                                            run)
            assert got.timeline.spans == ref.timeline.spans
            assert got.recv_wait == ref.recv_wait
            assert got.collectives == ref.collectives
            assert got.device_end == ref.device_end


class TestFallbackReasons:
    """The --profile fallback histogram: every scalar cell is blamed,
    with wall time attributed per reason; recovered lanes counted."""

    def test_reasons_recorded_and_described(self):
        from repro import profiling

        stats = profiling.batching_stats()
        before = dict(stats.fallback_reasons)
        before_s = dict(stats.fallback_s)
        before_rec = stats.recovered_lanes
        solo = lanes_for(lowered("gems", {}), n=1)
        run = RunConfig()
        execute_many([(solo[0], None)], run)
        plans = lanes_for(lowered("dapple", {}), n=2)
        execute_many([(p, None) for p in plans],
                     RunConfig(contention=True))  # full: time-ordered
        assert stats.fallback_reasons.get("singleton", 0) == \
            before.get("singleton", 0) + 1
        assert stats.fallback_s.get("singleton", 0.0) > \
            before_s.get("singleton", 0.0)
        assert "contention" not in stats.fallback_reasons
        assert stats.recovered_lanes == before_rec + 2
        text = stats.describe()
        assert "fallbacks [" in text
        assert "singleton=" in text
        assert "ms" in text.split("fallbacks [", 1)[1]  # wall time shown
        assert "recovered" in text
        assert "time-ordered" in text

    def test_recovery_counts_inside_batched_totals(self):
        """A recovered batch is a batch: occupancy and lane totals keep
        covering every batched lane."""
        from repro import profiling

        stats = profiling.batching_stats()
        lanes0, batches0 = stats.lanes, stats.batches
        plans = lanes_for(lowered("hanayo", {"num_waves": 2}))
        execute_batch(PlanBatch.from_plans(plans),
                      RunConfig(contention=True), detail="full")
        assert stats.lanes == lanes0 + len(plans)
        assert stats.batches == batches0 + 1
        assert sum(n * c for n, c in stats.occupancy.items()) \
            == stats.lanes


class TestFromPlansValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SchedulingError, match="empty batch"):
            PlanBatch.from_plans([])

    def test_unbound_plan_rejected(self):
        with pytest.raises(SchedulingError, match="not cost-bound"):
            PlanBatch.from_plans([lowered("gpipe", {})])

    def test_structure_mismatch_rejected(self):
        a = lanes_for(lowered("gpipe", {}), n=1)[0]
        b = lanes_for(lowered("dapple", {}), n=1)[0]
        with pytest.raises(SchedulingError,
                           match="congruence_key mismatch"):
            PlanBatch.from_plans([a, b])

    def test_capacity_arity_rejected(self):
        """Structured ConfigError naming the offending lane indices."""
        plans = lanes_for(lowered("gpipe", {}), n=3)
        with pytest.raises(
                ConfigError,
                match=r"one capacity per lane required.*"
                      r"lanes \[1, 2\] have no capacity"):
            PlanBatch.from_plans(plans, [None])
        with pytest.raises(
                ConfigError,
                match=r"capacities \[3\] name no lane"):
            PlanBatch.from_plans(plans, [None, 1, 2, 3])

    def test_capacity_needs_resources(self):
        plans = lanes_for(lowered("gpipe", {}), n=2)
        with pytest.raises(SchedulingError, match="capacity enforcement"):
            execute_batch(PlanBatch.from_plans(plans, [100, None]))


class TestRetimeBuffers:
    """The shared-column retime used by the synthesis scorer."""

    def _oracle(self, plan, i=0):
        return AbstractCosts(LANE_COSTS[i], P, plan.program.num_stages)

    def test_buffer_retime_equals_fresh(self):
        base = lowered("hanayo", {"num_waves": 2})
        buffers = RetimeBuffers()
        shared = base.retime(self._oracle(base), buffers=buffers)
        fresh = base.retime(self._oracle(base))
        assert shared.send_time == fresh.send_time
        assert shared.send_lat == fresh.send_lat
        assert shared.send_wire == fresh.send_wire
        assert shared.coll_step_time == fresh.coll_step_time
        assert_result_equal(execute_plan(shared, RunConfig()),
                            execute_plan(fresh, RunConfig()))

    def test_columns_alias_until_next_use(self):
        """The documented contract: a buffer-retimed plan is only valid
        until the buffers' next use — the columns are shared."""
        base = lowered("hanayo", {"num_waves": 2})
        buffers = RetimeBuffers()
        first = base.retime(self._oracle(base, 0), buffers=buffers)
        second = base.retime(self._oracle(base, 2), buffers=buffers)
        assert first.send_time is second.send_time
        assert first.send_time == base.retime(self._oracle(base, 2)) \
            .send_time


class TestBoundPlanCache:
    """PlanEntry.bindings: one re-time per (cluster, costs) key."""

    def test_binding_reused_per_key(self):
        from repro.analysis.plans import PlanEntry

        base = lowered("dapple", {})
        sched = build_schedule(make_config("dapple", P, B))
        entry = PlanEntry(schedule=sched, program=base.program,
                          plan=base)
        calls = []

        def factory(i):
            def make():
                calls.append(i)
                return self_oracle(i)
            return make

        def self_oracle(i):
            return AbstractCosts(LANE_COSTS[i], P,
                                 base.program.num_stages)

        a1 = entry.bound_plan(("k1",), factory(0))
        a2 = entry.bound_plan(("k1",), factory(0))
        b = entry.bound_plan(("k2",), factory(1))
        assert a1 is a2            # second lookup never re-times
        assert b is not a1
        assert calls == [0, 1]     # one oracle build per distinct key
        assert_result_equal(
            execute_plan(a1, RunConfig()),
            execute_plan(base.retime(self_oracle(0)), RunConfig()))
