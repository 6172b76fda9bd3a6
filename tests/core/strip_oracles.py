"""Reference strip engines the batched accelerator is pinned against.

``AcceleratorSimulator`` has one production path: every phase's
sampled strips go through stacked ``TileSimulator.simulate_strips``
calls, memoized per operand stack.  The helpers here rebuild the same
results the slow, obviously-correct way, so tests and benchmarks can
assert bit-identity:

* :func:`serial_phase` / :func:`serial_workload` -- the per-strip
  reference: the simulator's own operand draw (``_prepare_phase``), one
  ``TileSimulator.simulate_strip`` call per strip, then the simulator's
  own scaling (``_finish_phase``).  Never consults the tile memo.
* :func:`unstacked_workload` -- one ``simulate_phase`` call per phase,
  i.e. no multi-phase stacking.
"""

from repro.core.accelerator import (
    AcceleratorSimulator,
    LayerPhaseResult,
    WorkloadResult,
)
from repro.core.stats import SimCounters
from repro.core.tile import TileSimulator
from repro.core.workload import PhaseWorkload


def serial_phase(
    sim: AcceleratorSimulator, workload: PhaseWorkload
) -> LayerPhaseResult:
    """One layer-phase through the per-strip reference loop."""
    prep = sim._prepare_phase(workload)
    simulator = TileSimulator(prep.tile_cfg)
    sampled = SimCounters()
    total_steps = 0
    total_makespan = 0
    for i in range(prep.strips):
        result = simulator.simulate_strip(
            prep.a_stack[i],
            prep.b_stack[i],
            None if prep.initial_sums is None else prep.initial_sums[i],
        )
        sampled.add(result.counters)
        total_steps += result.steps
        total_makespan += result.makespan
    return sim._finish_phase(prep, sampled, total_steps, total_makespan)


def _workload_result(
    sim: AcceleratorSimulator,
    workloads: list[PhaseWorkload],
    phases: list[LayerPhaseResult],
) -> WorkloadResult:
    """The ``simulate_workload`` report around per-phase results."""
    return WorkloadResult(
        name=sim.config.name, model=workloads[0].model, phases=phases
    )


def serial_workload(
    sim: AcceleratorSimulator, workloads: list[PhaseWorkload]
) -> WorkloadResult:
    """``sim.simulate_workload`` through the per-strip reference."""
    return _workload_result(
        sim, workloads, [serial_phase(sim, w) for w in workloads]
    )


def unstacked_workload(
    sim: AcceleratorSimulator, workloads: list[PhaseWorkload]
) -> WorkloadResult:
    """``sim.simulate_workload`` with one tile pass per phase."""
    return _workload_result(
        sim, workloads, [sim.simulate_phase(w) for w in workloads]
    )
