"""The process-wide tile-outcome memo: reuse is exact and never aliases.

``AcceleratorSimulator`` answers a phase whose sampled operand stacks it
has already simulated from :data:`repro.core.tile_memo.DEFAULT_TILE_MEMO`
instead of re-running ``TileSimulator.simulate_strips``.  Every result
must stay byte-identical to a cold simulation, memory-side knobs must
share one tile outcome, and compute-side knobs must not.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from strip_oracles import serial_workload, unstacked_workload

from repro.core.accelerator import AcceleratorSimulator
from repro.core.config import TileConfig
from repro.core.stats import SimCounters
from repro.core.tile import TileSimulator
from repro.core.tile_memo import (
    DEFAULT_TILE_MEMO,
    TileOutcomeMemo,
    tile_outcome_key,
)
from repro.harness.experiments import _variant_config
from repro.traces.workloads import build_workloads

MODELS = ("NCF", "SNLI")
VARIANTS = ("zero", "zero+bdc", "full")
ENGINES = ("roofline", "hierarchy")
PROGRESS = (0.5, 0.8)
# Reduced sampling keeps the sweep fast; the reuse logic is
# sampling-independent.
QUICK = dict(sample_strips=2, sample_steps=8)


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts, and leaves, the process memo empty."""
    DEFAULT_TILE_MEMO.clear()
    yield
    DEFAULT_TILE_MEMO.clear()


@pytest.fixture()
def strip_calls(monkeypatch):
    """Counts ``TileSimulator.simulate_strips`` invocations."""
    calls = []
    real = TileSimulator.simulate_strips

    def counting(self, *args, **kwargs):
        calls.append(self.config)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(TileSimulator, "simulate_strips", counting)
    return calls


def _workloads(model, progress=0.5):
    return build_workloads(model, progress=progress, seed=0)


def _simulate(model, variant, engine, progress):
    return AcceleratorSimulator(
        _variant_config(variant), memory_engine=engine, **QUICK
    ).simulate_workload(_workloads(model, progress))


def _grid():
    return [
        (model, variant, engine, progress)
        for model in MODELS
        for progress in PROGRESS
        for variant in VARIANTS
        for engine in ENGINES
    ]


def _dump(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestExactReuse:
    def test_memo_on_matches_memo_cleared_over_the_sweep(self):
        cold = {}
        for point in _grid():
            DEFAULT_TILE_MEMO.clear()
            cold[point] = _dump(_simulate(*point))
        DEFAULT_TILE_MEMO.clear()
        warm = {point: _dump(_simulate(*point)) for point in _grid()}
        assert warm == cold
        # The sweep really reused tile work: memory-side siblings hit.
        assert DEFAULT_TILE_MEMO.stats.hits > DEFAULT_TILE_MEMO.stats.misses

    def test_batched_hits_match_the_serial_oracle(self):
        workloads = _workloads("NCF")
        batched = AcceleratorSimulator(**QUICK)
        batched.simulate_workload(workloads)
        hits = DEFAULT_TILE_MEMO.stats.hits
        warm = batched.simulate_workload(workloads)
        assert DEFAULT_TILE_MEMO.stats.hits == hits + len(workloads)
        serial = serial_workload(AcceleratorSimulator(**QUICK), workloads)
        assert _dump(warm) == _dump(serial)

    def test_serial_engine_is_not_memoized(self, strip_calls):
        workloads = _workloads("NCF")[:2]
        serial = AcceleratorSimulator(**QUICK)
        serial_workload(serial, workloads)
        serial_workload(serial, workloads)
        assert len(DEFAULT_TILE_MEMO) == 0
        assert DEFAULT_TILE_MEMO.stats.hits == 0
        assert strip_calls == []

    def test_unstacked_phases_share_entries_with_stacked_ones(
        self, strip_calls
    ):
        workloads = _workloads("NCF")
        stacked = AcceleratorSimulator(**QUICK).simulate_workload(workloads)
        calls = len(strip_calls)
        unstacked = unstacked_workload(
            AcceleratorSimulator(**QUICK), workloads
        )
        assert len(strip_calls) == calls
        assert _dump(unstacked) == _dump(stacked)


class TestKeying:
    def _phase(self):
        return _workloads("NCF")[0]

    def test_memory_side_knobs_share_one_tile_run(self, strip_calls):
        workload = self._phase()
        for variant, engine in (
            ("zero", "roofline"),
            ("zero+bdc", "roofline"),
            ("zero", "hierarchy"),
            ("zero+bdc", "hierarchy"),
        ):
            AcceleratorSimulator(
                _variant_config(variant), memory_engine=engine, **QUICK
            ).simulate_phase(workload)
        assert len(strip_calls) == 1
        assert DEFAULT_TILE_MEMO.stats.hits == 3

    def test_ob_skip_misses(self, strip_calls):
        workload = self._phase()
        AcceleratorSimulator(_variant_config("full"), **QUICK).simulate_phase(
            workload
        )
        AcceleratorSimulator(_variant_config("zero"), **QUICK).simulate_phase(
            workload
        )
        assert len(strip_calls) == 2
        assert strip_calls[0].pe.ob_skip != strip_calls[1].pe.ob_skip

    def test_per_layer_accumulator_width_misses(self, strip_calls):
        workload = self._phase()
        sim = AcceleratorSimulator(**QUICK)
        sim.simulate_phase(workload)
        sim.simulate_phase(replace(workload, acc_frac_bits=8))
        assert len(strip_calls) == 2
        assert DEFAULT_TILE_MEMO.stats.hits == 0

    def test_sampling_seed_misses(self, strip_calls):
        workload = self._phase()
        AcceleratorSimulator(seed=1, **QUICK).simulate_phase(workload)
        AcceleratorSimulator(seed=2, **QUICK).simulate_phase(workload)
        assert len(strip_calls) == 2

    def test_key_is_content_not_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 8, 4, 8))
        b = rng.normal(size=(2, 8, 4, 8))
        key = tile_outcome_key(TileConfig(), a, b, None)
        assert tile_outcome_key(TileConfig(), a.copy(), b.copy(), None) == key
        assert tile_outcome_key(TileConfig(), a, b, np.zeros((2, 8, 8))) != key
        assert tile_outcome_key(TileConfig(rows=4), a, b, None) != key
        bumped = a.copy()
        bumped[0, 0, 0, 0] = np.nextafter(bumped[0, 0, 0, 0], np.inf)
        assert tile_outcome_key(TileConfig(), bumped, b, None) != key

    def test_narrowed_payload_keeps_sign_of_zero_and_precision(self):
        zeros = np.zeros((1, 8, 1, 8))
        negative = -zeros
        b = np.ones((1, 8, 1, 8))
        assert tile_outcome_key(TileConfig(), zeros, b, None) != (
            tile_outcome_key(TileConfig(), negative, b, None)
        )
        # 1 + 2^-30 is not float32-exact: it must not collide with 1.0.
        fine = np.full((1, 8, 1, 8), 1.0 + 2.0**-30)
        assert tile_outcome_key(TileConfig(), fine, b, None) != (
            tile_outcome_key(TileConfig(), b, b, None)
        )


class TestIsolation:
    def test_mutating_a_result_does_not_touch_a_later_hit(self):
        workloads = _workloads("NCF")
        sim = AcceleratorSimulator(**QUICK)
        first = sim.simulate_workload(workloads)
        want = _dump(first)
        for phase in first.phases:
            phase.counters.groups = -1.0
            phase.counters.lanes.useful = -1.0
            phase.counters.terms.processed = -1.0
        second = sim.simulate_workload(workloads)
        assert DEFAULT_TILE_MEMO.stats.hits == len(workloads)
        assert _dump(second) == want

    def test_memo_hands_out_copies(self):
        memo = TileOutcomeMemo()
        sampled = SimCounters(groups=4.0)
        memo.put(("k",), (sampled, 8, 16))
        sampled.groups = 99.0
        got, steps, makespan = memo.get(("k",))
        got.groups = -1.0
        again, _, _ = memo.get(("k",))
        assert (again.groups, steps, makespan) == (4.0, 8, 16)

    def test_bounded_lru_with_stats(self):
        memo = TileOutcomeMemo(capacity=2)
        for name in ("a", "b"):
            memo.put((name,), (SimCounters(), 1, 1))
        assert memo.get(("a",)) is not None  # "b" is now least recent
        memo.put(("c",), (SimCounters(), 1, 1))
        assert len(memo) == 2
        assert memo.get(("b",)) is None
        assert memo.get(("c",)) is not None
        assert (memo.stats.hits, memo.stats.misses) == (2, 1)
        memo.clear()
        assert len(memo) == 0
        assert (memo.stats.hits, memo.stats.misses) == (0, 0)


class TestThreads:
    def test_concurrent_simulations_match_serial_ones(self):
        points = [
            (model, variant, engine, 0.5)
            for model in MODELS
            for variant in VARIANTS
            for engine in ENGINES
        ]
        serial = {}
        for point in points:
            DEFAULT_TILE_MEMO.clear()
            serial[point] = _dump(_simulate(*point))
        DEFAULT_TILE_MEMO.clear()

        def run(point):
            return point, _dump(_simulate(*point))

        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = dict(pool.map(run, points))
        assert concurrent == serial

