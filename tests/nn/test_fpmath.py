"""Tests for the arithmetic-mode matmul engine.

The crucial properties: the ``bf16`` mode is bit-identical to the golden
chunk accumulator, and the ``fpraker`` mode is bit-identical to chaining
the scalar FPRaker PE with chunked flushes -- exactly the relationship
between the paper's baseline and its PE.
"""

import numpy as np
import pytest

from repro.core.config import PEConfig
from repro.core.pe import FPRakerPE
from repro.fp.accumulator import dot_reference
from repro.fp.bfloat16 import bf16_quantize
from repro.nn.fpmath import EngineConfig, MatmulEngine


def _pe_chain_dot(a, b, chunk=64):
    """Reference: FPRaker PE groups with fp32 chunk flushes."""
    pe = FPRakerPE(PEConfig())
    outer = np.float32(0.0)
    macs = 0
    for k in range(0, a.size, 8):
        pe.process_group(a[k : k + 8], b[k : k + 8])
        macs += min(8, a.size - k)
        if macs >= chunk:
            outer = np.float32(outer + np.float32(pe.value()))
            pe.reset()
            macs = 0
    return float(np.float32(outer + np.float32(pe.value())))


class TestEngineConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="fp8")

    def test_chunk_group_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(chunk_size=60, group=8)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"group": 0}, "group"),
            ({"group": -8}, "group"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"chunk_size": -64}, "chunk_size"),
            ({"chunk_size": 4, "group": 8}, "chunk_size"),
            ({"acc_frac_bits": -1}, "acc_frac_bits"),
        ],
    )
    def test_impossible_values_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            EngineConfig(mode="fpraker", **kwargs)

    def test_group_sum_bound(self):
        # group * 2**(acc_frac_bits + 2) is the group-sum bound; past
        # 2**53 float64 can no longer hold it exactly.
        EngineConfig(mode="bf16", acc_frac_bits=48, group=8)
        EngineConfig(mode="bf16", acc_frac_bits=51, group=1, chunk_size=1)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            EngineConfig(mode="bf16", acc_frac_bits=49, group=8)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            EngineConfig(mode="bf16", acc_frac_bits=52, group=1)

    def test_widest_accepted_accumulator_stays_exact(self, rng):
        # frac=48 runs the float64 path at the very edge of the bound.
        engine = MatmulEngine(EngineConfig(mode="fpraker", acc_frac_bits=48))
        a = rng.normal(0, 1, (3, 70))
        b = rng.normal(0, 1, (70, 2))
        assert np.array_equal(
            engine.matmul(a, b), engine._matmul_emulated_reference(a, b, True)
        )


class TestFp32Mode:
    def test_matches_float32(self, rng):
        a = rng.normal(0, 1, (5, 40))
        b = rng.normal(0, 1, (40, 3))
        engine = MatmulEngine(EngineConfig(mode="fp32"))
        expected = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
        assert np.array_equal(engine.matmul(a, b), expected)

    def test_quantize_tensor_fp32(self, rng):
        engine = MatmulEngine(EngineConfig(mode="fp32"))
        x = rng.normal(0, 1, 64)
        assert np.array_equal(
            engine.quantize_tensor(x), x.astype(np.float32).astype(np.float64)
        )


class TestBf16Mode:
    def test_bit_exact_vs_dot_reference(self, rng):
        a = rng.normal(0, 1, (6, 96))
        b = rng.normal(0, 2, (96, 5))
        a[rng.random(a.shape) < 0.3] = 0.0
        engine = MatmulEngine(EngineConfig(mode="bf16"))
        out = engine.matmul(a, b)
        for i in range(6):
            for j in range(5):
                assert out[i, j] == dot_reference(a[i], b[:, j])

    def test_wide_exponent_range(self, rng):
        a = rng.normal(0, 1, (3, 64)) * 2.0 ** rng.integers(-20, 20, (3, 64))
        b = rng.normal(0, 1, (64, 3)) * 2.0 ** rng.integers(-20, 20, (64, 3))
        engine = MatmulEngine(EngineConfig(mode="bf16"))
        out = engine.matmul(a, b)
        for i in range(3):
            for j in range(3):
                assert out[i, j] == dot_reference(a[i], b[:, j])

    def test_quantize_tensor_bf16(self, rng):
        engine = MatmulEngine(EngineConfig(mode="bf16"))
        x = rng.normal(0, 1, 64)
        assert np.array_equal(engine.quantize_tensor(x), bf16_quantize(x))


class TestFprakerMode:
    def test_bit_exact_vs_pe_chain(self, rng):
        a = bf16_quantize(rng.normal(0, 1, (5, 128)))
        b = bf16_quantize(rng.normal(0, 2, (128, 4)))
        a[rng.random(a.shape) < 0.3] = 0.0
        engine = MatmulEngine(EngineConfig(mode="fpraker"))
        out = engine.matmul(a, b)
        for i in range(5):
            for j in range(4):
                assert out[i, j] == _pe_chain_dot(a[i], b[:, j])

    def test_close_to_bf16_mode(self, rng):
        """OB skipping only drops sub-grid terms: results track the
        bf16 baseline to well under a percent."""
        a = rng.normal(0, 1, (8, 256))
        b = rng.normal(0, 1, (256, 8))
        bf16 = MatmulEngine(EngineConfig(mode="bf16")).matmul(a, b)
        fpr = MatmulEngine(EngineConfig(mode="fpraker")).matmul(a, b)
        scale = np.abs(a).sum(axis=1, keepdims=True) * np.abs(b).max()
        assert np.all(np.abs(fpr - bf16) <= 0.01 * scale + 1e-6)

    def test_zero_matrix(self):
        engine = MatmulEngine(EngineConfig(mode="fpraker"))
        out = engine.matmul(np.zeros((3, 16)), np.zeros((16, 2)))
        assert np.array_equal(out, np.zeros((3, 2)))


class TestShapes:
    def test_shape_validation(self):
        engine = MatmulEngine()
        with pytest.raises(ValueError):
            engine.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            engine.matmul(np.zeros(3), np.zeros((3, 2)))

    def test_ragged_k(self, rng):
        """K not a multiple of the group size still works."""
        a = rng.normal(0, 1, (2, 13))
        b = rng.normal(0, 1, (13, 2))
        for mode in ("bf16", "fpraker"):
            out = MatmulEngine(EngineConfig(mode=mode)).matmul(a, b)
            assert out.shape == (2, 2)
            assert np.all(np.abs(out - a @ b) < 0.1 * np.abs(a @ b).max() + 0.1)
