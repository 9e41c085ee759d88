"""FaultRule/FaultPlan/FaultInjector: matching, determinism, caps, delays."""

import time

import pytest
from fault_plans import chaos_plan

from repro.serve import (
    FAULT_OPS,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    QueryBatch,
    TransientFaultError,
    disarmed_injector,
    resistance_query,
    solve_query,
)

import numpy as np


def _batch(*queries):
    first = queries[0]
    return QueryBatch(first.graph_key, first.kind, (), list(queries))


class TestFaultRuleValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown fault op"):
            FaultRule(op="explode")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(op="build", probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultRule(op="build", probability=-0.1)

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError, match="times"):
            FaultRule(op="build", times=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultRule(op="build", delay_seconds=-1.0)

    def test_every_documented_op_constructs(self):
        for op in FAULT_OPS:
            # a zero-second wedge is meaningless: the op requires a duration
            kwargs = {"delay_seconds": 0.5} if op == "worker_wedge" else {}
            FaultRule(op=op, **kwargs)


class TestSelectorsAndCaps:
    def test_build_rule_matches_by_kind(self):
        injector = FaultInjector(
            FaultPlan((FaultRule(op="build", kind="sketched_resistance"),))
        )
        injector.on_build("preprocessing")  # no match, no raise
        with pytest.raises(FaultInjectionError, match="sketched_resistance"):
            injector.on_build("sketched_resistance")

    def test_execute_rule_pinned_to_query_id(self):
        poisoned = solve_query("g", np.zeros(3))
        innocent = solve_query("g", np.zeros(3))
        injector = FaultInjector(
            FaultPlan((FaultRule(op="execute", query_id=poisoned.query_id),))
        )
        injector.on_execute(_batch(innocent))  # half without the poison: clean
        with pytest.raises(FaultInjectionError, match=str(poisoned.query_id)):
            injector.on_execute(_batch(innocent, poisoned))

    def test_execute_rule_matches_by_query_kind(self):
        injector = FaultInjector(FaultPlan((FaultRule(op="execute", kind="resistance"),)))
        injector.on_execute(_batch(solve_query("g", np.zeros(3))))
        with pytest.raises(FaultInjectionError):
            injector.on_execute(_batch(resistance_query("g", 0, 1)))

    def test_repair_rule_pinned_to_step(self):
        injector = FaultInjector(FaultPlan((FaultRule(op="repair", step=2),)))
        injector.on_repair(0)
        injector.on_repair(1)
        with pytest.raises(FaultInjectionError, match="step=2"):
            injector.on_repair(2)

    def test_times_caps_total_firings(self):
        injector = FaultInjector(FaultPlan((FaultRule(op="build", times=2),)))
        for _ in range(2):
            with pytest.raises(FaultInjectionError):
                injector.on_build("grounded")
        injector.on_build("grounded")  # exhausted: no more firings
        assert injector.fire_counts() == (2,)
        assert injector.fired_total == 2

    def test_nan_rule_returns_flag_instead_of_raising(self):
        query = solve_query("g", np.zeros(3))
        other = solve_query("g", np.zeros(3))
        injector = FaultInjector(
            FaultPlan((FaultRule(op="nan", query_id=query.query_id),))
        )
        assert injector.nan_output(query) is True
        assert injector.nan_output(other) is False

    def test_custom_message_used(self):
        injector = FaultInjector(
            FaultPlan((FaultRule(op="build", message="disk on fire"),))
        )
        with pytest.raises(FaultInjectionError, match="disk on fire"):
            injector.on_build("grounded")

    def test_transient_rule_raises_transient_type(self):
        injector = FaultInjector(FaultPlan((FaultRule(op="build", transient=True),)))
        with pytest.raises(TransientFaultError):
            injector.on_build("grounded")
        # TransientFaultError is still a FaultInjectionError
        assert issubclass(TransientFaultError, FaultInjectionError)


class TestDeterminismAndDelay:
    def test_probabilistic_firing_replays_exactly_given_seed(self):
        plan = FaultPlan((FaultRule(op="build", probability=0.5),), seed=99)

        def run(injector):
            pattern = []
            for _ in range(64):
                try:
                    injector.on_build("grounded")
                    pattern.append(False)
                except FaultInjectionError:
                    pattern.append(True)
            return pattern

        first = run(FaultInjector(plan))
        second = run(FaultInjector(plan))
        assert first == second
        assert any(first) and not all(first)  # actually probabilistic

    def test_different_seeds_differ(self):
        def run(seed):
            injector = FaultInjector(
                FaultPlan((FaultRule(op="build", probability=0.5),), seed=seed)
            )
            pattern = []
            for _ in range(64):
                try:
                    injector.on_build("grounded")
                    pattern.append(False)
                except FaultInjectionError:
                    pattern.append(True)
            return pattern

        assert run(1) != run(2)

    def test_delay_only_rule_sleeps_without_failing(self):
        injector = FaultInjector(
            FaultPlan((FaultRule(op="build", fail=False, delay_seconds=0.05),))
        )
        start = time.perf_counter()
        injector.on_build("grounded")  # no raise
        assert time.perf_counter() - start >= 0.04
        assert injector.fired_total == 1


class TestPlanHelpers:
    def test_chaos_plan_covers_every_seam(self):
        plan = chaos_plan(seed=7)
        ops = {rule.op for rule in plan.rules}
        assert ops == {"build", "execute", "repair", "nan"}
        assert any(rule.transient for rule in plan.rules)

    def test_chaos_plan_optional_latency_rule(self):
        plan = chaos_plan(seed=7, delay_seconds=0.01)
        assert any(rule.delay_seconds > 0 and not rule.fail for rule in plan.rules)

    def test_plan_rules_coerced_to_tuple(self):
        plan = FaultPlan(rules=[FaultRule(op="build")])
        assert isinstance(plan.rules, tuple)

    def test_disarmed_injector_is_inert(self):
        injector = disarmed_injector()
        injector.on_build("anything")
        injector.on_repair(0)
        assert injector.nan_output(solve_query("g", np.zeros(2))) is False
        assert injector.fired_total == 0
