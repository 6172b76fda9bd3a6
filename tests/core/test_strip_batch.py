"""Batched strip engine vs the serial reference: bit-exact equivalence.

`TileSimulator.simulate_strips` re-derives the column schedule through
monotone reductions over the per-PE alignment base (and runs them in
int16), so nothing about its implementation is shared with the per-strip
reference beyond the cycle-loop semantics.  These tests pin the required
contract: for every geometry, buffer depth, PE configuration, and
operand stream -- including degenerate all-zero ones -- the batch result
is bit-identical to looping `simulate_strip`, mirroring how the
vectorized schedule is pinned against the scalar PE.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strip_oracles import serial_phase, serial_workload, unstacked_workload

from repro.core.accelerator import AcceleratorSimulator
from repro.core.config import PEConfig, TileConfig
from repro.core.pragmatic import PragmaticFPAccelerator
from repro.core.tile import _EACC_ZERO, TileSimulator
from repro.core.tile_memo import DEFAULT_TILE_MEMO
from repro.core.workload import PhaseWorkload
from repro.fp.accumulator import MAX_FRAC_BITS, AccumulatorSpec
from repro.fp.bfloat16 import bf16_quantize


def _strip_stack(seed, strips, rows, cols, steps, spread, zero_fraction):
    """Random bfloat16 operand stacks with controlled sparsity."""
    rng = np.random.default_rng(seed)
    a = bf16_quantize(
        rng.normal(0, 1, (strips, cols, steps, 8))
        * 2.0 ** rng.integers(-spread, spread + 1, (strips, cols, steps, 8))
    )
    b = bf16_quantize(
        rng.normal(0, 1, (strips, rows, steps, 8))
        * 2.0 ** rng.integers(-spread, spread + 1, (strips, rows, steps, 8))
    )
    a[rng.random(a.shape) < zero_fraction] = 0.0
    b[rng.random(b.shape) < zero_fraction / 2] = 0.0
    return a, b, rng


def _assert_batch_matches_serial(config, a, b, initial_sums):
    """The core contract: batch entry i == simulate_strip of strip i."""
    sim = TileSimulator(config)
    batch = sim.simulate_strips(a, b, initial_sums)
    assert batch.strips == a.shape[0]
    assert batch.steps == a.shape[2]
    for i in range(a.shape[0]):
        ref = sim.simulate_strip(
            a[i], b[i], None if initial_sums is None else initial_sums[i]
        )
        got = batch.strip_result(i)
        assert got.makespan == ref.makespan
        assert got.steps == ref.steps
        # SimCounters is a plain dataclass tree: == is field-exact.
        assert got.counters == ref.counters
    assert batch.makespan == sum(
        int(m) for m in batch.makespans
    )


class TestBatchedEqualsSerial:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strips=st.integers(1, 6),
        rows=st.sampled_from([1, 2, 4, 8]),
        cols=st.sampled_from([1, 2, 4, 8]),
        steps=st.integers(1, 24),
        depth=st.integers(1, 8),
        spread=st.integers(0, 8),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        warm=st.sampled_from([None, 1.0, 1e4, 1e8]),
        ob_skip=st.booleans(),
        window=st.integers(1, 8),
    )
    @example(
        seed=11, strips=1, rows=8, cols=8, steps=6, depth=2, spread=4,
        zero_fraction=0.3, warm=None, ob_skip=True, window=2,
    )
    def test_property(
        self,
        seed,
        strips,
        rows,
        cols,
        steps,
        depth,
        spread,
        zero_fraction,
        warm,
        ob_skip,
        window,
    ):
        """Random geometries, depths, streams (incl. all-zero), warm
        starts, and PE variants: batched == serial, bit for bit."""
        config = TileConfig(
            rows=rows,
            cols=cols,
            buffer_depth=depth,
            pe=PEConfig(ob_skip=ob_skip, shift_window=window),
        )
        a, b, rng = _strip_stack(
            seed, strips, rows, cols, steps, spread, zero_fraction
        )
        if warm is None:
            initial = None
        else:
            initial = rng.normal(0, warm, (strips, rows, cols))
        _assert_batch_matches_serial(config, a, b, initial)

    def test_all_zero_streams(self):
        """Fully zero operands: every strip is pure exponent cycles."""
        a = np.zeros((3, 8, 5, 8))
        b = np.zeros((3, 8, 5, 8))
        _assert_batch_matches_serial(TileConfig(), a, b, None)
        sim = TileSimulator()
        batch = sim.simulate_strips(a, b)
        assert all(c.terms.processed == 0.0 for c in batch.counters)

    def test_wide_datapath_config(self):
        """Pragmatic-FP style PEs (no OB skip, unsaturated shifts)."""
        a, b, _ = _strip_stack(5, 4, 8, 8, 12, 8, 0.2)
        config = TileConfig(
            pe=PEConfig(ob_skip=False, saturate_shifts=False)
        )
        _assert_batch_matches_serial(config, a, b, None)

    def test_narrow_accumulator_config(self):
        a, b, rng = _strip_stack(9, 4, 8, 8, 12, 6, 0.3)
        config = TileConfig(
            pe=PEConfig(accumulator=AccumulatorSpec(frac_bits=5))
        )
        initial = rng.normal(0, 1e6, (4, 8, 8))
        _assert_batch_matches_serial(config, a, b, initial)

    def test_counters_total_matches_serial_accumulation(self):
        a, b, _ = _strip_stack(1, 5, 8, 8, 10, 5, 0.4)
        sim = TileSimulator()
        batch = sim.simulate_strips(a, b)
        total = batch.counters_total()
        assert total.groups == 5 * 8 * 8 * 10
        assert total.cycles == float(batch.makespan)

    def test_shape_validation(self):
        sim = TileSimulator()
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((2, 8, 4, 8)), np.zeros((8, 4, 8)))
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((2, 4, 4, 8)), np.zeros((2, 8, 4, 8)))
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((2, 8, 4, 8)), np.zeros((3, 8, 4, 8)))
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((0, 8, 4, 8)), np.zeros((0, 8, 4, 8)))


_SCHEDULE_FIELDS = (
    "cycles",
    "useful",
    "shift_stall",
    "no_term",
    "terms_processed",
    "terms_zero_skipped",
    "terms_ob_skipped",
)

# Accumulator widths for the window oracle: the paper's 12, the extremes
# of the accepted range, and widths whose OB window straddles zero.
_FRAC_BITS = (0, 1, 5, 9, 12, 15, 23, MAX_FRAC_BITS)

# Probe significands (value = s / 128): 255 = 2^8 - 1 puts a term at
# q = -1 and one at q = 7; the others cover single-term, dense and
# alternating CSD patterns across q = 0..7.
_PROBES = (255, 128, 192, 171, 129, 213, 240)

# Exponent of the anchor product every window row shares (above any
# probed base, so every probe product stays a normal bfloat16).
_ANCHOR_EXP = 70


def _window_stack(d_rows, probes):
    """One-step strip whose lane-0 alignment bases are exactly ``d_rows``.

    Column ``c`` streams the probe significand ``probes[c]`` in lane 0
    and a 1.0 anchor in lane 1.  Row ``r`` broadcasts ``2^A`` in lane 1
    (so every live PE's round maximum is ``A``) and ``2^(A - d_r)`` in
    lane 0, which puts the probe's alignment base at ``d_r``.  A final
    row of zero B operands is all dead.
    """
    rows, cols = len(d_rows) + 1, len(probes)
    a = np.zeros((1, cols, 1, 8))
    a[0, :, 0, 0] = np.asarray(probes) / 128.0
    a[0, :, 0, 1] = 1.0
    b = np.zeros((1, rows, 1, 8))
    b[0, :-1, 0, 0] = 2.0 ** (_ANCHOR_EXP - np.asarray(d_rows))
    b[0, :-1, 0, 1] = 2.0**_ANCHOR_EXP
    return a, b


def _window_config(a, b, frac_bits, ob_skip, window=3):
    return TileConfig(
        rows=b.shape[1],
        cols=a.shape[1],
        pe=PEConfig(
            ob_skip=ob_skip,
            shift_window=window,
            accumulator=AccumulatorSpec(frac_bits=frac_bits),
        ),
    )


def _assert_schedule_matches_serial(config, a, b, eacc=None):
    """Every schedule field of the loop-free path == `_schedule_columns`
    per strip (eacc defaults to the operands' own evolution)."""
    from repro.core.tile import accumulator_exponents

    if eacc is None:
        eacc = accumulator_exponents(a, b)
    sim = TileSimulator(config)
    batched = sim._schedule_strip_columns(a, b, eacc)
    for i in range(a.shape[0]):
        ref = sim._schedule_columns(a[i], b[i], eacc[i])
        for field in _SCHEDULE_FIELDS:
            got = getattr(batched, field)[i]
            want = getattr(ref, field).reshape(got.shape)
            assert (got == want).all(), field


class TestLoopFreeStripSchedule:
    """The loop-free column schedule vs the serial `_schedule_columns`.

    `_schedule_strip_columns` resolves column-synchronized OB from a
    per-lane row-class mask and a firing table (no Python row loop) on
    int16 bit-extracted operand fields; these tests pin it directly --
    schedule arrays, not just aggregated counters -- against the int64
    per-row reference across geometries, accumulator widths, PE
    variants, degenerate streams, and row bases placed exactly on the
    edges of the OB window.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strips=st.integers(1, 4),
        rows=st.sampled_from([1, 2, 4, 8, 16]),
        cols=st.sampled_from([1, 2, 8]),
        steps=st.integers(1, 16),
        spread=st.integers(0, 8),
        zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        ob_skip=st.booleans(),
        saturate=st.booleans(),
        window=st.integers(1, 8),
        warm=st.sampled_from([None, 1.0, 1e6]),
        frac_bits=st.sampled_from(_FRAC_BITS),
    )
    def test_schedule_bit_identical(
        self,
        seed,
        strips,
        rows,
        cols,
        steps,
        spread,
        zero_fraction,
        ob_skip,
        saturate,
        window,
        warm,
        frac_bits,
    ):
        from repro.core.tile import accumulator_exponents

        config = TileConfig(
            rows=rows,
            cols=cols,
            pe=PEConfig(
                ob_skip=ob_skip,
                saturate_shifts=saturate,
                shift_window=window,
                accumulator=AccumulatorSpec(frac_bits=frac_bits),
            ),
        )
        a, b, rng = _strip_stack(
            seed, strips, rows, cols, steps, spread, zero_fraction
        )
        initial = (
            None if warm is None else rng.normal(0, warm, (strips, rows, cols))
        )
        eacc = accumulator_exponents(a, b, initial)
        _assert_schedule_matches_serial(config, a, b, eacc)

    @pytest.mark.parametrize("ob_skip", [True, False])
    @pytest.mark.parametrize("frac_bits", _FRAC_BITS)
    def test_window_edges(self, frac_bits, ob_skip):
        """Every row base from threshold - 9 to threshold + 3 -- so
        exactly threshold - 7, threshold - q for each position q, and
        threshold + 1 -- against probes covering q = -1 (significand
        255) through q = 7, plus an all-dead row."""
        d_rows = [
            d for d in range(frac_bits - 9, frac_bits + 4) if d >= 0
        ]
        a, b = _window_stack(d_rows, _PROBES)
        config = _window_config(a, b, frac_bits, ob_skip)
        _assert_schedule_matches_serial(config, a, b)

    @pytest.mark.parametrize("ob_skip", [True, False])
    @pytest.mark.parametrize(
        "eacc_value",
        [_EACC_ZERO, -301, -300, -299, 0, 40, 1023, 1100, 1101],
    )
    def test_eacc_clip_bounds(self, eacc_value, ob_skip):
        """Accumulator exponents at, just inside and just beyond both
        int16 clip bounds, with live, window and all-dead rows."""
        d_rows = [0, 3, 4, 5, 6, 12, 13, 20]
        a, b = _window_stack(d_rows, _PROBES)
        config = _window_config(a, b, 12, ob_skip)
        eacc = np.full((1, b.shape[1], a.shape[1], 1), eacc_value)
        _assert_schedule_matches_serial(config, a, b, eacc)

    @settings(max_examples=60, deadline=None)
    @given(
        frac_bits=st.sampled_from(_FRAC_BITS),
        offsets=st.lists(st.integers(-10, 4), min_size=1, max_size=16),
        probes=st.lists(st.integers(128, 255), min_size=1, max_size=4),
        ob_skip=st.booleans(),
        window=st.integers(1, 8),
    )
    def test_window_row_subsets(
        self, frac_bits, offsets, probes, ob_skip, window
    ):
        """Arbitrary row bases around the threshold (any subset of the
        window classes, repeats included) for arbitrary significands."""
        d_rows = [max(frac_bits + offset, 0) for offset in offsets]
        a, b = _window_stack(d_rows, probes)
        config = _window_config(a, b, frac_bits, ob_skip, window)
        _assert_schedule_matches_serial(config, a, b)

    def test_dead_pairs_never_set_the_round_maximum(self):
        """A zero operand beside a huge partner must not outvote a tiny
        live product in the round MAX, on either operand side."""
        a = np.zeros((1, 2, 2, 8))
        b = np.zeros((1, 2, 2, 8))
        a[0, :, :, 0] = 2.0**-100  # live, tiny: product 2^-220
        b[0, :, :, 0] = 2.0**-120
        b[0, :, :, 1] = 2.0**127  # A zero: dead
        a[0, :, :, 2] = 2.0**127  # B zero: dead
        a[0, 1, :, 3] = 1.5 * 2.0**-110  # a second live product
        b[0, :, :, 3] = 2.0**-100
        for ob_skip in (True, False):
            config = TileConfig(rows=2, cols=2, pe=PEConfig(ob_skip=ob_skip))
            _assert_schedule_matches_serial(config, a, b)

    def test_all_dead_lanes(self):
        """Zero B operands in every lane of some rows: those PEs' round
        maximum sits at the dead-round stand-in and their bases go
        negative, in both OB modes."""
        a, b, _ = _strip_stack(3, 2, 8, 4, 6, 3, 0.0)
        b[:, ::2] = 0.0
        for ob_skip in (True, False):
            config = TileConfig(
                rows=8, cols=4, pe=PEConfig(ob_skip=ob_skip)
            )
            _assert_schedule_matches_serial(config, a, b)


def _cold(run, *args):
    """``run(*args)`` from an empty tile-outcome memo, so each leg of a
    comparison runs the tile engine itself instead of reusing the other
    leg's outcomes."""
    DEFAULT_TILE_MEMO.clear()
    return run(*args)


class TestPhaseStacking:
    """Multi-phase stacks == per-phase batched calls, bit for bit."""

    def _workloads(self, model="NCF", acc_profile=None):
        from repro.traces.workloads import build_workloads

        return build_workloads(
            model, progress=0.5, seed=0, acc_profile=acc_profile, cache=None
        )

    def test_stacked_equals_unstacked(self):
        workloads = self._workloads()
        sim = AcceleratorSimulator()
        stacked = _cold(sim.simulate_workload, workloads)
        unstacked = _cold(unstacked_workload, sim, workloads)
        assert stacked.to_dict() == unstacked.to_dict()

    def test_stacked_equals_serial_reference(self):
        workloads = self._workloads()
        sim = AcceleratorSimulator(sample_strips=2, sample_steps=8)
        stacked = _cold(sim.simulate_workload, workloads)
        serial = serial_workload(sim, workloads)
        assert stacked.to_dict() == serial.to_dict()

    def test_mixed_tile_configs_group_correctly(self):
        """Per-layer accumulator overrides split phases into distinct
        stacks; results still match the unstacked path."""
        from repro.models.zoo import get_model

        layers = [layer.name for layer in get_model("NCF").layers]
        profile = {layers[0]: 9, layers[1]: 15}
        workloads = self._workloads(acc_profile=profile)
        sim = AcceleratorSimulator()
        stacked = _cold(sim.simulate_workload, workloads)
        unstacked = _cold(unstacked_workload, sim, workloads)
        assert stacked.to_dict() == unstacked.to_dict()

    def test_chunking_boundary(self):
        """A tiny stack cap forces multiple chunked engine calls."""
        workloads = self._workloads()
        small = AcceleratorSimulator()
        small._MAX_STACK_ROWS = 1  # one phase per call, degenerate cap
        large = AcceleratorSimulator()
        assert (
            _cold(small.simulate_workload, workloads).to_dict()
            == _cold(large.simulate_workload, workloads).to_dict()
        )

    def test_pragmatic_stacking(self):
        workloads = self._workloads()
        sim = PragmaticFPAccelerator()
        stacked = _cold(sim.simulate_workload, workloads)
        unstacked = _cold(unstacked_workload, sim, workloads)
        assert stacked.to_dict() == unstacked.to_dict()


def _phase_workload(seed, sparsity=0.4, size=2048):
    rng = np.random.default_rng(seed)
    values_a = bf16_quantize(rng.normal(0, 1, size))
    values_a[rng.random(size) < sparsity] = 0.0
    values_b = bf16_quantize(rng.normal(0, 1, size))
    return PhaseWorkload(
        model="prop",
        layer="l0",
        phase="AxW",
        macs=4_000_000,
        reduction=512,
        tensor_a="A",
        tensor_b="W",
        values_a=values_a,
        values_b=values_b,
        input_bytes=1e6,
        output_bytes=2.5e5,
    )


class TestAcceleratorEngines:
    """The batched engine and the per-strip reference share one operand
    draw -> identical phases."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        # The batched leg must run the engine, not reuse an outcome an
        # earlier test memoized (the reference never consults the memo).
        DEFAULT_TILE_MEMO.clear()

    @pytest.mark.parametrize("cls", [AcceleratorSimulator, PragmaticFPAccelerator])
    def test_engines_bit_identical(self, cls):
        workload = _phase_workload(3)
        batched = cls().simulate_phase(workload)
        serial = serial_phase(cls(), workload)
        assert batched.to_dict() == serial.to_dict()

    def test_engines_identical_on_empty_streams(self):
        workload = _phase_workload(4)
        workload.values_a = np.array([])
        workload.values_b = np.array([])
        sim = AcceleratorSimulator(sample_strips=2, sample_steps=8)
        batched = sim.simulate_phase(workload)
        serial = serial_phase(sim, workload)
        assert batched.to_dict() == serial.to_dict()

    def test_engines_identical_on_zero_streams(self):
        workload = _phase_workload(5)
        workload.values_a = np.zeros(512)
        workload.values_b = np.zeros(512)
        sim = AcceleratorSimulator(sample_strips=2, sample_steps=8)
        batched = sim.simulate_phase(workload)
        serial = serial_phase(sim, workload)
        assert batched.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("cls", [AcceleratorSimulator, PragmaticFPAccelerator])
    def test_empty_phase_list_rejected(self, cls):
        with pytest.raises(ValueError, match="empty workload list"):
            cls().simulate_workload([])
