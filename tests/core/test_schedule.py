"""Tests for the vectorized schedule model, cross-checked vs the scalar PE."""

import numpy as np
import pytest

from repro.core.config import PEConfig
from repro.core.pe import FPRakerPE
from repro.core.schedule import (
    group_term_weights,
    operand_exponents,
    schedule_groups,
)
from repro.fp.accumulator import AccumulatorSpec
from repro.fp.bfloat16 import bf16_quantize


def _random_groups(rng, n, zero_fraction=0.25, exp_range=6):
    a = bf16_quantize(rng.normal(0, 1, (n, 8)) * 2.0 ** rng.integers(-exp_range, exp_range, (n, 8)))
    b = bf16_quantize(rng.normal(0, 1, (n, 8)) * 2.0 ** rng.integers(-exp_range, exp_range, (n, 8)))
    a[rng.random((n, 8)) < zero_fraction] = 0.0
    b[rng.random((n, 8)) < zero_fraction / 2] = 0.0
    return a, b


class TestScalarEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            PEConfig(),
            PEConfig(ob_skip=False),
            PEConfig(shift_window=1),
            PEConfig(shift_window=8),
            PEConfig(accumulator=AccumulatorSpec(frac_bits=6)),
            PEConfig(ob_skip=False, saturate_shifts=False),
        ],
        ids=["default", "no-ob", "window1", "window8", "narrow-acc", "wide-path"],
    )
    def test_matches_scalar_pe(self, rng, config):
        """The vectorized schedule must agree with the scalar PE group
        by group across configurations."""
        a, b = _random_groups(rng, 150)
        result = schedule_groups(a, b, config)
        for g in range(a.shape[0]):
            pe = FPRakerPE(config)
            trace = pe.process_group(a[g], b[g])
            assert trace.cycles == result.cycles[g]
            assert sum(trace.lane_useful) == result.useful[g].sum()
            assert sum(trace.lane_shift) == result.shift_stall[g].sum()
            assert sum(trace.lane_no_term) == result.no_term[g].sum()
            assert trace.terms_processed == result.terms_processed[g].sum()
            assert trace.terms_ob_skipped == result.terms_ob_skipped[g].sum()
            assert trace.terms_zero_skipped == result.terms_zero_skipped[g].sum()


class TestScheduleInvariants:
    def test_lane_cycle_conservation(self, rng):
        a, b = _random_groups(rng, 500)
        result = schedule_groups(a, b)
        busy = result.useful + result.shift_stall + result.no_term
        assert np.array_equal(busy, np.broadcast_to(result.cycles[:, None], busy.shape))

    def test_minimum_one_cycle(self, rng):
        a = np.zeros((50, 8))
        b = np.zeros((50, 8))
        result = schedule_groups(a, b)
        assert np.all(result.cycles == 1)
        assert np.all(result.no_term == 1)

    def test_useful_equals_kept_terms(self, rng):
        a, b = _random_groups(rng, 500)
        result = schedule_groups(a, b)
        assert np.array_equal(result.useful, result.terms_processed)

    def test_term_slots_conserved(self, rng):
        a, b = _random_groups(rng, 500)
        result = schedule_groups(a, b)
        total = (
            result.terms_processed
            + result.terms_zero_skipped
            + result.terms_ob_skipped
        )
        assert np.all(total == 8)

    def test_ob_never_slower(self, rng):
        a, b = _random_groups(rng, 500, exp_range=8)
        with_ob = schedule_groups(a, b, PEConfig(ob_skip=True))
        without = schedule_groups(a, b, PEConfig(ob_skip=False))
        assert np.all(with_ob.cycles <= without.cycles)

    def test_wider_window_never_slower(self, rng):
        a, b = _random_groups(rng, 300)
        narrow = schedule_groups(a, b, PEConfig(shift_window=1))
        wide = schedule_groups(a, b, PEConfig(shift_window=12))
        assert np.all(wide.cycles <= narrow.cycles)

    def test_accumulator_exponent_enables_skipping(self, rng):
        """A high accumulator exponent pushes small products' terms out
        of bounds."""
        a = bf16_quantize(rng.uniform(1, 2, (100, 8)))
        b = bf16_quantize(rng.uniform(1, 2, (100, 8)))
        cold = schedule_groups(a, b, eacc=None)
        hot = schedule_groups(
            a, b, eacc=np.full(100, 14, dtype=np.int64)
        )
        assert hot.terms_ob_skipped.sum() > cold.terms_ob_skipped.sum()
        assert hot.cycles.sum() <= cold.cycles.sum()


class TestLeadingBatchDims:
    """The schedule API accepts any leading batch shape (the batched
    strip engine hands it [strip, col, step] stacks)."""

    def test_matches_flat_layout(self, rng):
        a, b = _random_groups(rng, 120)
        flat = schedule_groups(a, b)
        shaped = schedule_groups(
            a.reshape(4, 5, 6, 8), b.reshape(4, 5, 6, 8)
        )
        assert shaped.cycles.shape == (4, 5, 6)
        assert shaped.useful.shape == (4, 5, 6, 8)
        assert np.array_equal(shaped.cycles.reshape(-1), flat.cycles)
        assert np.array_equal(shaped.useful.reshape(-1, 8), flat.useful)
        assert np.array_equal(
            shaped.terms_ob_skipped.reshape(-1, 8), flat.terms_ob_skipped
        )
        assert shaped.groups == flat.groups
        assert shaped.total_cycles() == flat.total_cycles()

    def test_eacc_in_leading_shape(self, rng):
        a, b = _random_groups(rng, 60)
        eacc = rng.integers(-10, 20, 60)
        flat = schedule_groups(a, b, eacc=eacc)
        shaped = schedule_groups(
            a.reshape(3, 20, 8), b.reshape(3, 20, 8), eacc=eacc.reshape(3, 20)
        )
        assert np.array_equal(shaped.cycles.reshape(-1), flat.cycles)

    def test_compact_loop_matches_plain(self, rng):
        """schedule_from_weights_compact is the batched engine's loop:
        identical per-group outcomes to schedule_from_weights (fed the
        same weights in its term-major, lane-major layout)."""
        from repro.core.schedule import (
            group_term_weights,
            schedule_from_weights,
            schedule_from_weights_compact,
        )

        a, b = _random_groups(rng, 400, exp_range=8)
        config = PEConfig()
        k, kept, zero_slots, ob, _ = group_term_weights(a, b, None, config)
        plain = schedule_from_weights(k, kept, zero_slots, ob, config)
        compact = schedule_from_weights_compact(
            k.transpose(2, 1, 0), kept.T, zero_slots.T, ob.T, config
        )
        assert np.array_equal(plain.cycles, compact.cycles)
        assert np.array_equal(plain.useful, compact.useful)
        assert np.array_equal(plain.shift_stall, compact.shift_stall)
        assert np.array_equal(plain.no_term, compact.no_term)
        assert np.array_equal(plain.terms_ob_skipped, compact.terms_ob_skipped)


class TestOperandExponents:
    def test_zero_reads_as_minimum(self):
        exps = operand_exponents(np.array([0.0, 1.0, 4.0]))
        assert exps[0] == -127
        assert exps[1] == 0
        assert exps[2] == 2

    def test_matches_frexp(self, bf16_vector):
        exps = operand_exponents(bf16_vector)
        for x, e in zip(bf16_vector, exps):
            if x != 0.0:
                assert 2.0**e <= abs(x) < 2.0 ** (e + 1)


class TestGroupTermWeights:
    def test_k_nonnegative_floor(self, rng):
        """Offsets can only go one position above emax (the carry term)."""
        a, b = _random_groups(rng, 200)
        k, kept, _, _, emax = group_term_weights(a, b, None, PEConfig())
        live = k < (1 << 29)
        assert k[live].min() >= -1

    def test_k_ascending_per_lane(self, rng):
        a, b = _random_groups(rng, 200)
        k, kept, _, _, _ = group_term_weights(a, b, None, PEConfig())
        for g in range(200):
            for lane in range(8):
                ks = k[g, lane, : kept[g, lane]]
                assert np.all(np.diff(ks) > 0)

    def test_ob_threshold_respected(self, rng):
        a, b = _random_groups(rng, 200, exp_range=10)
        config = PEConfig()
        k, kept, _, ob, _ = group_term_weights(a, b, None, config)
        live = k < (1 << 29)
        assert np.all(k[live] <= config.accumulator.ob_threshold)
