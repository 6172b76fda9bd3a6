"""Cross-backend bit-identity through the dispatching call sites.

Every ``kernel_backend`` value must produce byte-identical results at
every layer that dispatches: the compacting schedule, the batched tile
engine, the chunked matmul emulation, full workload simulations, and a
multi-process :class:`SimulationSession`.  In an environment without
numba the ``"numba"`` knob falls back to numpy -- the parity assertions
still hold (trivially), so this suite runs everywhere and hardens into
a real cross-backend check once the ``[backends]`` extra is installed.

Degenerate inputs get explicit coverage: all-zero operand streams,
single-strip stacks, empty operand/phase lists, and ``jobs > 1``
worker-process fan-out.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import KERNEL_BACKENDS
from repro.core.accelerator import AcceleratorSimulator
from repro.core.config import PEConfig, TileConfig
from repro.core.schedule import (
    _K_SENTINEL,
    schedule_from_weights,
    schedule_from_weights_compact,
)
from repro.core.tile import TileSimulator
from repro.core.tile_memo import DEFAULT_TILE_MEMO
from repro.fp.bfloat16 import bf16_quantize
from repro.harness.runner import SessionConfig, SimRequest, SimulationSession
from repro.nn.fpmath import EngineConfig, MatmulEngine

# The fallback warning is part of the contract under test: silence it
# so parametrized runs without numba stay quiet.
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*falling back to the numpy backend.*:RuntimeWarning"
)

_FIELDS = ("cycles", "useful", "shift_stall", "no_term")


def _schedule_case(seed, groups, lanes, n_terms, kmax):
    rng = np.random.default_rng(seed)
    count = rng.integers(0, n_terms + 1, (groups, lanes))
    k = rng.integers(0, kmax, (groups, lanes, n_terms))
    slot = np.arange(n_terms)
    k = np.where(slot < count[:, :, None], k, _K_SENTINEL)
    zero = np.zeros((groups, lanes), dtype=np.int64)
    return k, count, zero


def _strip_stack(seed, strips, rows, cols, steps, spread, zero_fraction):
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
    return a, b


@pytest.fixture(params=KERNEL_BACKENDS)
def backend_name(request):
    return request.param


class TestScheduleParity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kmax=st.sampled_from([2, 14, 40]),
        window=st.integers(1, 8),
    )
    def test_property_every_backend(self, seed, kmax, window):
        k, kept, zero = _schedule_case(seed, 10, 6, 4, kmax)
        config = PEConfig(shift_window=window)
        ref = schedule_from_weights(k.copy(), kept.copy(), zero, zero, config)
        for name in KERNEL_BACKENDS:
            got = schedule_from_weights_compact(
                k.copy(), kept.copy(), zero, zero, config, kernel_backend=name
            )
            for field in _FIELDS:
                assert (
                    getattr(got, field) == getattr(ref, field)
                ).all(), f"{name}:{field}"

    def test_all_empty_groups(self, backend_name):
        k = np.full((6, 4, 3), _K_SENTINEL)
        kept = np.zeros((6, 4), dtype=np.int64)
        zero = np.zeros((6, 4), dtype=np.int64)
        got = schedule_from_weights_compact(
            k, kept, zero, zero, PEConfig(), kernel_backend=backend_name
        )
        assert (got.cycles == 1).all()
        assert (got.no_term == 1).all()


class TestTileParity:
    def _assert_backends_match(self, config, a, b, initial=None):
        results = []
        for name in KERNEL_BACKENDS:
            sim = TileSimulator(config, kernel_backend=name)
            batch = sim.simulate_strips(a, b, initial)
            results.append(
                [batch.strip_result(i).counters for i in range(a.shape[0])]
            )
        for other in results[1:]:
            assert other == results[0]

    def test_random_stack(self):
        a, b = _strip_stack(7, 4, 8, 8, 12, 6, 0.3)
        self._assert_backends_match(TileConfig(), a, b)

    def test_all_zero_streams(self):
        a = np.zeros((3, 8, 5, 8))
        b = np.zeros((3, 8, 5, 8))
        self._assert_backends_match(TileConfig(), a, b)

    def test_single_strip_stack(self):
        a, b = _strip_stack(11, 1, 8, 8, 6, 4, 0.2)
        self._assert_backends_match(
            TileConfig(buffer_depth=2, pe=PEConfig(shift_window=2)), a, b
        )


class TestMatmulParity:
    def _engines(self, mode, **knobs):
        return [
            MatmulEngine(
                EngineConfig(mode=mode, kernel_backend=name, **knobs)
            )
            for name in KERNEL_BACKENDS
        ]

    def _assert_same(self, got, want):
        both_nan = np.isnan(got) & np.isnan(want)
        same = (
            (got == want) & (np.signbit(got) == np.signbit(want))
        ) | both_nan
        assert same.all()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["bf16", "fpraker"]),
        spread=st.sampled_from([0, 6, 20]),
        frac_bits=st.sampled_from([12, 18, 23]),
    )
    def test_property_every_backend(self, seed, mode, spread, frac_bits):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (5, 130)) * 2.0 ** rng.integers(
            -spread, spread + 1, (5, 130)
        )
        b = rng.normal(0, 1, (130, 3)) * 2.0 ** rng.integers(
            -spread, spread + 1, (130, 3)
        )
        first, *rest = self._engines(mode, acc_frac_bits=frac_bits)
        want = first.matmul(a, b)
        for engine in rest:
            self._assert_same(engine.matmul(a, b), want)

    def test_all_zero_operands(self):
        a = np.zeros((4, 70))
        b = np.zeros((70, 3))
        for mode in ("bf16", "fpraker"):
            first, *rest = self._engines(mode)
            want = first.matmul(a, b)
            assert (want == 0.0).all()
            assert not np.signbit(want).any()
            for engine in rest:
                self._assert_same(engine.matmul(a, b), want)


class TestWorkloadParity:
    def _workloads(self):
        from repro.traces.workloads import build_workloads

        return build_workloads("NCF", progress=0.5, seed=0, cache=None)

    def _simulate(self, name):
        # The tile-outcome memo ignores the backend, so each backend
        # starts from an empty memo to run its own kernels.
        DEFAULT_TILE_MEMO.clear()
        return (
            AcceleratorSimulator(
                sample_strips=2, sample_steps=8, kernel_backend=name
            )
            .simulate_workload(self._workloads())
            .to_dict()
        )

    def test_full_workload_bytes_identical(self):
        results = [self._simulate(name) for name in KERNEL_BACKENDS]
        first = json.dumps(results[0], sort_keys=True)
        for other in results[1:]:
            assert json.dumps(other, sort_keys=True) == first

    def test_empty_phase_list_rejected_identically(self, backend_name):
        sim = AcceleratorSimulator(kernel_backend=backend_name)
        with pytest.raises(ValueError, match="empty workload list"):
            sim.simulate_workload([])


class TestSessionParity:
    """The knob through SimulationSession, including worker processes."""

    def _run(self, **knobs):
        DEFAULT_TILE_MEMO.clear()
        config = SessionConfig(
            sample_strips=2, sample_steps=8, workload_cache=False, **knobs
        )
        session = SimulationSession(config=config)
        requests = [SimRequest.make("NCF"), SimRequest.make("NCF", seed=3)]
        session.prefetch(requests)
        return [
            json.dumps(session.resolve(r).to_dict(), sort_keys=True)
            for r in requests
        ]

    def test_backends_identical_through_session(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runs = [
                self._run(kernel_backend=name) for name in KERNEL_BACKENDS
            ]
        for other in runs[1:]:
            assert other == runs[0]

    def test_jobs_fan_out_identical_bytes(self):
        # jobs=2 forwards the knob into worker processes; the bytes
        # must match the serial jobs=1 run exactly.
        serial = self._run(jobs=1)
        fanned = self._run(jobs=2)
        assert fanned == serial
