"""Chunked emulated-matmul kernel vs its serial reference, in one process.

`MatmulEngine._matmul_emulated` (the chunk-vectorized engine that every
emulated ``bf16``/``fpraker`` matmul runs) is timed against the serial
group-loop reference `_matmul_emulated_reference` on the three matmul
shapes that dominate the Fig 17 convnet's training step:

* ``(512x16)@(16x72)``: a 16-MAC reduction, all of it a sub-chunk tail;
* ``(9x2048)@(2048x8)``: 32 full 64-MAC chunks in lockstep;
* ``(2048x9)@(9x8)``: long rows over a one-group-plus-one reduction.

Both engines must agree byte for byte before their times may be
compared.  The geometric-mean reference/chunked ratio over the six
(shape, mode) cases must clear ``GATE``; the measured numbers land in
``benchmarks/results/BENCH_fpmath.json`` (uploaded as a CI artifact).
"""

import json
import pathlib
import time

import numpy as np

from conftest import show

from repro.fp.bfloat16 import bf16_quantize
from repro.harness.profiling import _best_of
from repro.harness.report import Table, geomean
from repro.nn.fpmath import EngineConfig, MatmulEngine

BENCH_FILE = pathlib.Path(__file__).parent / "results" / "BENCH_fpmath.json"

SHAPES = ((512, 16, 72), (9, 2048, 8), (2048, 9, 8))
MODES = ("bf16", "fpraker")
# Geometric-mean reference/chunked speedup floor.  Measured 4.8-6.2x
# (4.8x inside a full test-suite run; 2.9-3.0x before the pre-scaled
# significand tables) on a 2-core Xeon with AVX-512 and numpy 2.4; the
# floor leaves over 30% headroom below the slowest measurement.
GATE = 3.5


def _operands(m, k, n):
    """Activation-like operands: ReLU zeros of either sign, bf16 values."""
    rng = np.random.default_rng(m * k + n)
    a = np.maximum(rng.normal(0, 1, (m, k)), 0.0)
    a[a == 0.0] *= -1.0
    b = rng.normal(0, 0.1, (k, n))
    return bf16_quantize(a), bf16_quantize(b)


def test_chunked_vs_reference_speedup():
    """Byte-identical outputs; geometric-mean speedup >= GATE."""
    cases = []
    for m, k, n in SHAPES:
        a, b = _operands(m, k, n)
        for mode in MODES:
            engine = MatmulEngine(EngineConfig(mode=mode))
            fpraker = mode == "fpraker"
            # Warm both paths once (table build, numpy dispatch, page
            # faults) before any timed measurement.
            engine.matmul(a, b, pre_quantized=True)
            engine._matmul_emulated_reference(a, b, fpraker)
            t_chunked, got = _best_of(
                lambda: engine.matmul(a, b, pre_quantized=True), 5
            )
            t_reference, want = _best_of(
                lambda: engine._matmul_emulated_reference(a, b, fpraker), 3
            )
            assert got.tobytes() == want.tobytes()
            cases.append(
                {
                    "shape": f"({m}x{k})@({k}x{n})",
                    "mode": mode,
                    "chunked_seconds": t_chunked,
                    "reference_seconds": t_reference,
                    "speedup": t_reference / t_chunked,
                }
            )
    mean_speedup = geomean([case["speedup"] for case in cases])
    table = Table(
        "Emulated matmul: chunked engine vs serial reference",
        ["shape", "mode", "chunked [ms]", "reference [ms]", "speedup"],
    )
    for case in cases:
        table.add_row(
            case["shape"],
            case["mode"],
            case["chunked_seconds"] * 1e3,
            case["reference_seconds"] * 1e3,
            case["speedup"],
        )
    show(
        table,
        "Fig 17 trains under emulated FPRaker arithmetic; the chunk "
        "engine carries every one of its MACs.",
    )
    payload = {
        "bench": "fpmath",
        "cases": cases,
        "geomean_speedup": mean_speedup,
        "gate": GATE,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    BENCH_FILE.parent.mkdir(exist_ok=True)
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    assert mean_speedup >= GATE
