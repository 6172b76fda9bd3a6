"""Scale-out sweep cost: symmetric schemes amortize to one node sim.

Data- and model-parallel plans are symmetric by construction, so an
N-node simulation must cost roughly *one* node simulation, not N -- the
aggregator simulates node 0 and replicates the summary.  The gate times
an 8-node data-parallel run against 8 independent shard simulations and
requires the amortized path to win by a wide margin, plus the fig-style
scaleout artifact end to end.
"""

import time

from conftest import run_once, show

from repro.core.accelerator import AcceleratorSimulator
from repro.core.config import fpraker_paper_config
from repro.core.tile_memo import DEFAULT_TILE_MEMO
from repro.harness.experiments import run_scaleout
from repro.scale.partition import partition_workloads
from repro.scale.scaleout import ScaleOutSimulator
from repro.traces.workloads import build_workloads

MODEL = "NCF"
FAST = dict(sample_strips=2, sample_steps=8)


def _best_of(fn, repeats=3):
    """Minimum wall time over several runs (noise-robust on CI)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_symmetric_replication_amortizes(benchmark):
    """8-node data-parallel run ~ 1 shard sim, not 8."""
    workloads = build_workloads(MODEL, progress=0.5)
    sim = ScaleOutSimulator(
        fpraker_paper_config(), nodes=8, scheme="data", **FAST
    )
    plan = partition_workloads(workloads, 8, "data")
    node_sim = AcceleratorSimulator(fpraker_paper_config(), **FAST)

    # Both legs simulate every node they pay for from an empty
    # tile-outcome memo: identical shard stacks would otherwise turn
    # the naive leg's seven later shards into memo hits, and repeated
    # rounds into hits altogether.
    def all_nodes_naive():
        for node_plan in plan.node_plans:
            DEFAULT_TILE_MEMO.clear()
            node_sim.simulate_workload(node_plan.workloads, model=MODEL)

    def scaleout_cold():
        DEFAULT_TILE_MEMO.clear()
        return sim.simulate_workload(workloads, model=MODEL)

    scaleout_cold()  # warm caches
    result = benchmark.pedantic(scaleout_cold, rounds=3, iterations=1)
    t_scaleout = _best_of(scaleout_cold)
    t_naive = _best_of(all_nodes_naive)
    print(
        f"\n8-node data-parallel: {t_scaleout*1e3:.1f} ms amortized vs "
        f"{t_naive*1e3:.1f} ms naive ({t_naive/t_scaleout:.1f}x)"
    )
    assert result.nodes == 8
    # One simulation plus aggregation must beat 8 simulations clearly.
    assert t_scaleout < t_naive / 3


def test_scaleout_artifact(benchmark):
    """The fig-style sweep end to end on the cheapest Table-I model."""
    result = run_once(
        benchmark, run_scaleout, models=(MODEL,), nodes=(1, 2, 4, 8)
    )
    show(
        result,
        "scale-out extension: data-parallel speedup vs node count "
        "(no paper figure; pod-scale projection from ROADMAP)",
    )
    aggregate, _ = result
    speedups = aggregate.column("Speedup vs 1")
    assert speedups[0] == 1.0
    assert all(b > a for a, b in zip(speedups, speedups[1:]))
