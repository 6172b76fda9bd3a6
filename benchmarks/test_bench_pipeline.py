"""Cold-vs-optimized full-pipeline benchmark with a machine-readable
trajectory file.

The headline figures sweep many accelerator configurations over the
same models, so end-to-end cost is dominated by how much per-config
work the pipeline re-does.  This benchmark runs one fig19/fig11-shaped
smoke sweep (several FPRaker geometries plus the baseline over two
training-progress points) twice:

* **legacy**: the pre-reuse pipeline shape -- workloads rebuilt per
  configuration (cold Gibbs inverse each time, empty tile-outcome
  memo), one tile-engine call per phase (no multi-phase stacking),
  fresh per-config compression measurements;
* **optimized**: the content-addressed workload cache shares one build
  per (model, progress) across every configuration, phases stack into
  batched tile calls, and the per-workload memos (compression ratio,
  serial-side choice) and the process tile-outcome memo amortize
  across configs; each run starts with that memo empty.

Both runs must agree bit for bit before their times may be compared;
the optimized pipeline must be at least 3x faster on the sweep.  The
measured numbers land in ``benchmarks/results/BENCH_pipeline.json``
(the machine-readable perf trajectory, uploaded as a CI artifact)
alongside a per-stage profile from ``repro profile``'s engine.
"""

import json
import pathlib
import time

from conftest import show
from strip_oracles import unstacked_workload

from repro.core.accelerator import AcceleratorSimulator
from repro.core.baseline import BaselineAccelerator
from repro.core.config import baseline_paper_config, fpraker_paper_config
from repro.core.tile_memo import DEFAULT_TILE_MEMO
from repro.harness.profiling import profile_pipeline
from repro.harness.report import Table
from repro.traces.synthetic import gibbs_cache_clear
from repro.traces.workload_cache import WorkloadCache
from repro.traces.workloads import build_workloads

BENCH_FILE = pathlib.Path(__file__).parent / "results" / "BENCH_pipeline.json"

MODEL = "NCF"
PROGRESS_POINTS = (0.5, 0.8)
# Reduced sampling keeps the smoke sweep seconds-scale; the reuse
# structure under test is sampling-independent.
SAMPLING = dict(sample_strips=2, sample_steps=8)
GATE = 3.0


def _rows_config(rows):
    from dataclasses import replace

    config = fpraker_paper_config()
    tiles = config.tiles * config.tile.rows // rows
    return replace(config, tiles=tiles, tile=replace(config.tile, rows=rows))


def _sweep_configs():
    from repro.harness.experiments import _variant_config

    # The fig11 decomposition variants plus two fig19 row geometries
    # and the bit-parallel baseline: the per-model configuration mix
    # one `repro run all` actually sweeps.
    return (
        fpraker_paper_config(),
        _variant_config("zero"),
        _variant_config("zero+bdc"),
        _rows_config(4),
        _rows_config(16),
        baseline_paper_config(),
    )


def _run_legacy():
    """Rebuild-per-config pipeline: no reuse, no stacking."""
    results = []
    for progress in PROGRESS_POINTS:
        for config in _sweep_configs():
            gibbs_cache_clear()
            DEFAULT_TILE_MEMO.clear()
            workloads = build_workloads(MODEL, progress=progress, cache=None)
            if config.name == "baseline":
                result = BaselineAccelerator(config).simulate_workload(
                    workloads
                )
            else:
                result = unstacked_workload(
                    AcceleratorSimulator(config, **SAMPLING), workloads
                )
            results.append(result)
    return results


def _run_optimized():
    """Shared workload build + stacked batched engine per config."""
    gibbs_cache_clear()
    DEFAULT_TILE_MEMO.clear()
    cache = WorkloadCache()
    results = []
    for progress in PROGRESS_POINTS:
        for config in _sweep_configs():
            workloads = build_workloads(MODEL, progress=progress, cache=cache)
            if config.name == "baseline":
                result = BaselineAccelerator(config).simulate_workload(
                    workloads
                )
            else:
                result = AcceleratorSimulator(
                    config, **SAMPLING
                ).simulate_workload(workloads)
            results.append(result)
    return results


def test_pipeline_reuse_speedup(benchmark):
    """Cold sweep vs reuse-enabled sweep: bit-identical, >= 3x."""
    from repro.harness.profiling import _best_of

    # Warm both paths once (numpy dispatch caches, page faults) before
    # any timed measurement: the first-ever invocation is noticeably
    # slower and must not bias either side of the ratio.
    _run_optimized()
    _run_legacy()
    t_opt, optimized = _best_of(_run_optimized, 3)
    benchmark.pedantic(_run_optimized, rounds=1, iterations=1)
    t_legacy, legacy = _best_of(_run_legacy, 3)
    # Identical results are a precondition of the timing comparison.
    assert len(optimized) == len(legacy)
    for got, want in zip(optimized, legacy):
        assert got.to_dict() == want.to_dict()
    if t_legacy / t_opt < GATE:
        # One re-measurement before judging: a background blip during
        # either ~0.5s window can dent the ratio on shared runners.
        from repro.harness.profiling import _best_of as _retry_best

        t_opt = min(t_opt, _retry_best(_run_optimized, 3)[0])
        t_legacy = min(t_legacy, _retry_best(_run_legacy, 3)[0])
    speedup = t_legacy / t_opt
    table = Table(
        f"Cold vs optimized sweep pipeline "
        f"({MODEL}, {len(PROGRESS_POINTS) * len(_sweep_configs())} runs)",
        ["pipeline", "time [s]", "speedup"],
    )
    table.add_row("legacy (rebuild per config)", t_legacy, 1.0)
    table.add_row("optimized (reuse + stacking)", t_opt, speedup)
    show(
        table,
        "Workload reuse + phase stacking: the sweep pays tensor "
        "generation once per (model, progress) instead of once per "
        "configuration.",
    )
    payload = {
        "bench": "pipeline",
        "workload": {
            "model": MODEL,
            "progress_points": list(PROGRESS_POINTS),
            "configs": [c.name for c in _sweep_configs()],
            "sampling": SAMPLING,
        },
        "legacy_seconds": t_legacy,
        "optimized_seconds": t_opt,
        "speedup": speedup,
        "gate": GATE,
        "stage_profile": profile_pipeline(MODEL, repeats=1),
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    BENCH_FILE.parent.mkdir(exist_ok=True)
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    assert speedup >= GATE

