"""Per-stage timing of the simulation pipeline (``repro profile``).

Profiles the four stages a cold figure regeneration pays for one model
-- workload construction, the tile schedule engine, the event-level
memory engine, and base-delta compression measurement -- plus the full
default phase pipeline, and reports machine-readable JSON.  The CI
benchmark-smoke job uploads the document as an artifact, giving every
commit a comparable breakdown of where simulation time goes.

Timings are wall-clock best-of-N (noise-robust on shared runners); the
workload-build stage is measured cold (fresh Gibbs inverse, no workload
cache) *and* through the content-addressed cache, so the reuse layer's
effect is part of the record.
"""

from __future__ import annotations

import json
import time

from repro.core.accelerator import AcceleratorSimulator
from repro.core.config import fpraker_paper_config
from repro.core.tile_memo import DEFAULT_TILE_MEMO
from repro.memory.dram import DRAMModel
from repro.memory.traffic import TRANSPOSERS_PER_TILE, phase_traffic
from repro.compression.base_delta import mean_compression_ratio
from repro.traces.synthetic import gibbs_cache_clear
from repro.traces.workload_cache import WorkloadCache
from repro.traces.workloads import build_workloads


def _best_of(fn, repeats: int):
    """Minimum wall time over several runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def profile_pipeline(
    model: str = "NCF",
    progress: float = 0.5,
    seed: int = 0,
    repeats: int = 2,
) -> dict:
    """Time each pipeline stage for one model's training-step workload.

    Args:
        model: Table-I model name.
        progress: training progress of the profiled workload.
        seed: workload RNG seed.
        repeats: wall-clock measurements per stage (best is kept).

    Returns:
        JSON-ready dict with per-stage seconds and cache statistics.
    """
    config = fpraker_paper_config()
    dram = DRAMModel()

    def build_cold():
        gibbs_cache_clear()
        return build_workloads(model, progress=progress, seed=seed, cache=None)

    build_cold_s, workloads = _best_of(build_cold, repeats)

    cache = WorkloadCache()
    build_workloads(model, progress=progress, seed=seed, cache=cache)
    build_cached_s, _ = _best_of(
        lambda: build_workloads(
            model, progress=progress, seed=seed, cache=cache
        ),
        repeats,
    )

    simulator = AcceleratorSimulator(config)

    def schedule_cold():
        # Each repetition times the tile engine, not tile-memo hits.
        DEFAULT_TILE_MEMO.clear()
        return simulator.simulate_workload(workloads)

    schedule_s, result = _best_of(schedule_cold, repeats)

    memory_s, _ = _best_of(
        lambda: [
            phase_traffic(
                workload,
                dram=dram,
                clock_mhz=config.clock_mhz,
                transposer_units=config.tiles * TRANSPOSERS_PER_TILE,
            )
            for workload in workloads
        ],
        repeats,
    )

    compression_s, _ = _best_of(
        lambda: [
            mean_compression_ratio(workload.values_a, workload.values_b)
            for workload in workloads
        ],
        repeats,
    )

    return {
        "model": model,
        "progress": progress,
        "seed": seed,
        "layer_phases": len(workloads),
        "total_cycles": result.cycles,
        "stages_seconds": {
            "workload_build_cold": build_cold_s,
            "workload_build_cached": build_cached_s,
            "schedule": schedule_s,
            "memory_engine": memory_s,
            "compression": compression_s,
        },
        "workload_cache": {
            "hits": cache.stats.hits,
            "disk_hits": cache.stats.disk_hits,
            "builds": cache.stats.builds,
        },
    }


def render_profile(profile: dict) -> str:
    """The profile as an indented JSON document."""
    return json.dumps(profile, indent=2)
