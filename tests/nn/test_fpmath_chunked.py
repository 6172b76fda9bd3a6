"""Chunk-vectorized matmul emulation vs the serial group-loop reference.

`MatmulEngine._matmul_emulated` runs every full 64-MAC chunk of the
reduction concurrently in int16/float32, gathering pre-scaled
significands from one table per mode; the serial float64 reference
(`_matmul_emulated_reference`) is kept as the bit-exactness anchor,
mirroring the serial tile engine.  These tests pin the two against each
other across shapes (chunk boundaries, tails, single-group reductions,
the Fig 17 convnet's matmuls), modes, accumulator configurations,
signed zeros and operand magnitudes up to the bfloat16 extremes, and
check the engine's pieces -- the tables and the bit-pattern rounding --
against their definitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.booth import partial_csd_sum
from repro.fp.bfloat16 import bf16_quantize
from repro.fp.softfloat import round_significand
from repro.nn import fpmath
from repro.nn.fpmath import EngineConfig, MatmulEngine

# Operands near the bfloat16 magnitude limits overflow the fp32 outer
# fold to inf in BOTH engines (the emulation's defined saturating
# behavior); numpy flags the cast, the property asserts the bits match.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning"
)


def _operands(seed, m, k, n, spread, sparsity, signed_zeros=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, (m, k)) * 2.0 ** rng.integers(
        -spread, spread + 1, (m, k)
    )
    b = rng.normal(0, 1, (k, n)) * 2.0 ** rng.integers(
        -spread, spread + 1, (k, n)
    )
    a[rng.random(a.shape) < sparsity] = 0.0
    if signed_zeros:
        # ReLU backprop writes -0.0: zero both sides, either sign.
        b[rng.random(b.shape) < sparsity] = 0.0
        for side in (a, b):
            side[(side == 0.0) & (rng.random(side.shape) < 0.5)] = -0.0
    return a, b


def _bimodal_operands(seed, m, k, n):
    """Same-sign operands over two exponent binades.

    Large same-sign terms drive group-sums past float32's 2**24 exact
    range while the small-binade terms snap to odd integers -- the
    combination that exposed the frac-only float32 gate.
    """
    r = np.random.default_rng(seed)
    scale_a = np.where(r.random((m, k)) < 0.25, 2.0**-4, 1.0)
    a = np.abs(r.normal(1.5, 0.3, (m, k))).clip(1.0, 1.99) * scale_a
    scale_b = np.where(r.random((k, n)) < 0.25, 2.0**-4, 1.0)
    b = np.abs(r.normal(1.5, 0.3, (k, n))).clip(1.0, 1.99) * scale_b
    return a, b


def _assert_same(got, want):
    both_nan = np.isnan(got) & np.isnan(want)
    same = ((got == want) & (np.signbit(got) == np.signbit(want))) | both_nan
    assert same.all()


class TestChunkedMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 24),
        k=st.integers(1, 200),
        n=st.integers(1, 12),
        spread=st.sampled_from([0, 4, 20, 120]),
        sparsity=st.sampled_from([0.0, 0.4, 1.0]),
        mode=st.sampled_from(["bf16", "fpraker"]),
        frac_bits=st.sampled_from([5, 12, 23]),
        signed_zeros=st.booleans(),
    )
    def test_property(
        self, seed, m, k, n, spread, sparsity, mode, frac_bits, signed_zeros
    ):
        engine = MatmulEngine(EngineConfig(mode=mode, acc_frac_bits=frac_bits))
        a, b = _operands(seed, m, k, n, spread, sparsity, signed_zeros)
        fpraker = mode == "fpraker"
        _assert_same(
            engine.matmul(a, b),
            engine._matmul_emulated_reference(a, b, fpraker),
        )

    @pytest.mark.parametrize("mode", ["bf16", "fpraker"])
    @pytest.mark.parametrize(
        "m, k, n",
        [
            pytest.param(512, 16, 72, id="tail-only"),
            pytest.param(9, 2048, 8, id="32-chunks"),
            pytest.param(2048, 9, 8, id="long-rows"),
        ],
    )
    def test_fig17_convnet_shapes(self, m, k, n, mode):
        """The Fig 17 convnet's matmul shapes, with signed zeros."""
        engine = MatmulEngine(EngineConfig(mode=mode))
        a, b = _operands(m * k + n, m, k, n, 6, 0.4, signed_zeros=True)
        _assert_same(
            engine.matmul(a, b),
            engine._matmul_emulated_reference(a, b, mode == "fpraker"),
        )

    @pytest.mark.parametrize("block_lanes", [1, 1500, 3000])
    def test_row_blocks(self, monkeypatch, block_lanes):
        """Row blocks of the outer axis, in either layout, keep the bytes."""
        monkeypatch.setattr(fpmath, "_BLOCK_LANES", block_lanes)
        for m, n in ((40, 7), (7, 40)):
            a, b = _operands(m, m, 150, n, 8, 0.3, signed_zeros=True)
            for mode in ("bf16", "fpraker"):
                engine = MatmulEngine(EngineConfig(mode=mode))
                _assert_same(
                    engine.matmul(a, b),
                    engine._matmul_emulated_reference(a, b, mode == "fpraker"),
                )

    def test_chunk_boundaries(self):
        """k at, just below, and just above flush points."""
        for k in (63, 64, 65, 127, 128, 129, 512):
            for mode in ("bf16", "fpraker"):
                engine = MatmulEngine(EngineConfig(mode=mode))
                a, b = _operands(k, 5, k, 3, 6, 0.3)
                _assert_same(
                    engine.matmul(a, b),
                    engine._matmul_emulated_reference(a, b, mode == "fpraker"),
                )

    @pytest.mark.parametrize("frac_bits", [0, 1, 2])
    def test_narrow_accumulators(self, frac_bits):
        """Ties are common at 0-2 fractional bits, and at 0 the kept
        lsb of the accumulator's rounding is its hidden bit."""
        for mode in ("bf16", "fpraker"):
            engine = MatmulEngine(
                EngineConfig(mode=mode, acc_frac_bits=frac_bits)
            )
            a, b = _operands(frac_bits, 6, 150, 5, 3, 0.2, signed_zeros=True)
            _assert_same(
                engine.matmul(a, b),
                engine._matmul_emulated_reference(a, b, mode == "fpraker"),
            )

    def test_custom_chunk_and_group(self):
        for mode in ("bf16", "fpraker"):
            engine = MatmulEngine(
                EngineConfig(mode=mode, chunk_size=16, group=4)
            )
            a, b = _operands(7, 9, 53, 4, 8, 0.2)
            _assert_same(
                engine.matmul(a, b),
                engine._matmul_emulated_reference(a, b, mode == "fpraker"),
            )

    def test_pre_quantized_flag_is_a_pure_fast_path(self):
        for mode in ("bf16", "fpraker"):
            engine = MatmulEngine(EngineConfig(mode=mode))
            a, b = _operands(11, 8, 96, 6, 10, 0.3)
            aq, bq = bf16_quantize(a), bf16_quantize(b)
            _assert_same(
                engine.matmul(aq, bq, pre_quantized=True),
                engine.matmul(aq, bq),
            )

    def test_all_zero_operands(self):
        engine = MatmulEngine(EngineConfig(mode="fpraker"))
        a = np.zeros((4, 70))
        b = np.zeros((70, 3))
        got = engine.matmul(a, b)
        assert (got == 0.0).all()
        _assert_same(got, engine._matmul_emulated_reference(a, b, True))


class TestFloat32ExactnessBoundary:
    """The chunked path's float32 group-sum gate at the 2^24 boundary.

    Snapped terms are integers bounded by ``2**(frac + 2)``, so a
    group-sum fits float32's 24-bit significand exactly iff
    ``group * 2**(frac + 2) <= 2**24``.  The gate must be group-aware:
    the old ``frac <= 18`` cutoff silently overflowed float32 at
    ``group=64, frac=18`` (bound ``2**26``).
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frac_bits=st.sampled_from([17, 18, 19]),
        mode=st.sampled_from(["bf16", "fpraker"]),
        spread=st.sampled_from([0, 4, 20]),
    )
    def test_property_at_boundary_fracs(self, seed, frac_bits, mode, spread):
        engine = MatmulEngine(EngineConfig(mode=mode, acc_frac_bits=frac_bits))
        a, b = _operands(seed, 6, 130, 4, spread, 0.2)
        _assert_same(
            engine.matmul(a, b),
            engine._matmul_emulated_reference(a, b, mode == "fpraker"),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frac_bits=st.sampled_from([17, 18, 19]),
        mode=st.sampled_from(["bf16", "fpraker"]),
    )
    def test_wide_group_at_boundary_fracs(self, seed, frac_bits, mode):
        # Regression: group=64 with frac=18 bounds the group-sum by
        # 2**26 > 2**24, which the old frac-only gate ran in float32.
        engine = MatmulEngine(
            EngineConfig(mode=mode, acc_frac_bits=frac_bits, group=64)
        )
        a, b = _bimodal_operands(seed, 4, 256, 3)
        _assert_same(
            engine.matmul(a, b),
            engine._matmul_emulated_reference(a, b, mode == "fpraker"),
        )

    @pytest.mark.parametrize("mode", ["bf16", "fpraker"])
    def test_wide_group_known_divergence(self, mode):
        # This exact input diverged from the reference under the old
        # frac-only gate: same-sign large terms push the group-sum past
        # 2**24 while smaller-exponent terms snap to odd integers, so
        # the float32 sum loses unit bits and the final rounding flips.
        engine = MatmulEngine(
            EngineConfig(mode=mode, acc_frac_bits=18, group=64)
        )
        a, b = _bimodal_operands(0, 4, 256, 4)
        _assert_same(
            engine.matmul(a, b),
            engine._matmul_emulated_reference(a, b, mode == "fpraker"),
        )

    def test_gate_is_group_aware(self):
        # Direct pin on the dtype choice: default group=8 stays
        # float32 through frac=19; group=64 must widen at frac=18.
        assert 8 * (1 << (19 + 2)) <= (1 << 24)
        assert 64 * (1 << (18 + 2)) > (1 << 24)
        a, b = _operands(3, 2, 150, 2, 6, 0.0)
        wide = MatmulEngine(
            EngineConfig(mode="fpraker", acc_frac_bits=18, group=64)
        )
        _assert_same(
            wide.matmul(a, b),
            wide._matmul_emulated_reference(a, b, True),
        )


class TestScaledTable:
    """Each mode's table against its definition, entry by entry."""

    ROWS = np.arange(512)
    MAN = ROWS % 256
    SIGN = np.where(ROWS >= 256, -1.0, 1.0)

    @pytest.mark.parametrize("frac", [0, 5, 12, 19, 23])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fpraker_table(self, frac, dtype):
        cap = frac + 3
        table = fpmath._scaled_table(True, frac, dtype).reshape(512, cap + 1)
        assert table.dtype == dtype
        for j in range(cap):
            kept = partial_csd_sum(self.MAN, np.full(512, j + 7 - frac))
            want = self.SIGN * kept * 2.0 ** (frac - j)
            assert np.array_equal(table[:, j], want)
        assert (table[:, cap] == 0.0).all()
        # The clamp is exact: no CSD term survives any column past it.
        for j in range(frac + 2, frac + 300, 7):
            kept = partial_csd_sum(self.MAN, np.full(512, j + 7 - frac))
            assert (kept == 0).all()

    @pytest.mark.parametrize("frac", [0, 5, 12, 19, 23])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bf16_table(self, frac, dtype):
        cap = frac + 3
        table = fpmath._scaled_table(False, frac, dtype).reshape(512, cap + 1)
        assert table.dtype == dtype
        for j in range(cap):
            want = self.SIGN * self.MAN * 2.0 ** (frac - j)
            assert np.array_equal(table[:, j], want)
        assert (table[:, cap] == 0.0).all()
        # The clamp is exact: from column cap on, the largest product
        # magnitude, 255 * 255 * 2^-14 * 2^(frac - j), rounds to 0.
        assert np.rint(255 * 255 * 2.0**-14 * 2.0**-3) == 0.0

    def test_shared_table_is_read_only(self):
        table = fpmath._scaled_table(True, 12, np.float32)
        assert table is fpmath._scaled_table(True, 12, np.float32)
        with pytest.raises(ValueError):
            table[0] = 1.0


class TestRoundNormal:
    """The chunk engine's bit-pattern RNE against round_significand."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frac_bits=st.integers(0, 51))
    def test_matches_round_significand(self, seed, frac_bits):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 300) * 2.0 ** rng.integers(-600, 600, 300)
        # Exact halfway points between neighbours at this precision.
        odd = 2 * rng.integers(0, 1 << min(frac_bits, 20), 100) + 1
        ties = (2.0 ** (frac_bits + 1) + odd) * 2.0 ** (
            rng.integers(-300, 300, 100) - frac_bits - 1
        )
        values = np.concatenate([values, ties, -ties, [0.0, -0.0]])
        got = fpmath._round_normal(values.copy(), frac_bits)
        _assert_same(got, round_significand(values, frac_bits))

    def test_ties_to_even(self):
        # 1.001b and 1.011b sit halfway at 2 fractional bits.
        values = np.array([1.125, 1.375, 2.25, 2.75])
        got = fpmath._round_normal(values, 2)
        assert got.tolist() == [1.0, 1.5, 2.0, 3.0]

    def test_carry_into_next_binade(self):
        values = np.array([1.875, 1.96875, 3.9, 2.0**-300 * 1.99])
        got = fpmath._round_normal(values, 2)
        assert got.tolist() == [2.0, 2.0, 4.0, 2.0**-299]

    def test_negatives(self):
        values = np.array([-1.125, -1.375, -1.875, -3.3])
        got = fpmath._round_normal(values, 2)
        assert got.tolist() == [-1.0, -1.5, -2.0, -3.5]

    def test_zeros_come_out_positive(self):
        got = fpmath._round_normal(np.array([0.0, -0.0]), 12)
        assert (got == 0.0).all()
        assert not np.signbit(got).any()
        _assert_same(got, round_significand(np.array([0.0, -0.0]), 12))
