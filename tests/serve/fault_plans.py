"""Seeded fault-plan presets the chaos suites arm."""

from repro.serve import FaultPlan, FaultRule


def chaos_plan(
    seed: int,
    build_rate: float = 0.05,
    execute_rate: float = 0.02,
    repair_rate: float = 0.25,
    nan_rate: float = 0.02,
    transient_rate: float = 0.05,
    delay_seconds: float = 0.0,
) -> FaultPlan:
    """A randomized-but-seeded plan exercising every planner seam at once.

    Unselective probabilistic rules for every op (persistent build/execute
    failures, a transient build flake, repair-walk crashes, NaN output
    poisoning, optional uniform latency), all driven by one seed so a
    failing run replays exactly.
    """
    rules = [
        FaultRule(op="build", probability=build_rate),
        FaultRule(op="build", probability=transient_rate, transient=True),
        FaultRule(op="execute", probability=execute_rate),
        FaultRule(op="repair", probability=repair_rate),
        FaultRule(op="nan", probability=nan_rate),
    ]
    if delay_seconds > 0:
        rules.append(
            FaultRule(op="execute", probability=1.0, fail=False, delay_seconds=delay_seconds)
        )
    return FaultPlan(rules=tuple(rules), seed=seed)
