"""The repository benchmark: one command, three workloads.

Run from the repository root (see ``perfbench/README.md``)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 40 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``sweep_cold`` -- the request stream ``repro run`` issues for Figs
  11-16 and 18, resolved one at a time through shared sessions;
* ``train_fpraker`` -- the Fig 17 convnet trained under emulated FPRaker
  arithmetic, one minibatch step per operation;
* ``serve_mixed`` -- one closed-loop client against a ``repro serve``
  daemon: warm-key hits, cold misses and mixed ``/sweep`` batches.

Each repetition runs in a fresh interpreter (``perfbench/rep.py``), as
many as fit in ``--seconds``.  All timings are host time.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and then
traced repetitions and reports per-layer self times and counts.  The last
line of standard output is the JSON result; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run never lasts longer than this, set-up probes included.
HARD_LIMIT_S = 170.0
# Set-up is timed in at least this many fresh processes per run.
MIN_SETUP_SAMPLES = 3

# Latency samples behind each workload's op_p50_ms.
PRIMARY = {"sweep_cold": "sim", "train_fpraker": "step", "serve_mixed": "hit"}

# The issue-level names of each workload's end-to-end figures:
# (name, unit, latency sample or None for the operation rate, percentile).
NAMED = {
    "sweep_cold": [
        ("sweep.sims_per_s", "1/s", None, None),
        ("sweep.sim_p50_ms", "ms", "sim", 50),
        ("sweep.sim_p90_ms", "ms", "sim", 90),
    ],
    "train_fpraker": [
        ("train.steps_per_s", "1/s", None, None),
        ("train.step_p50_ms", "ms", "step", 50),
        ("train.step_p90_ms", "ms", "step", 90),
    ],
    "serve_mixed": [
        ("serve.req_per_s", "1/s", None, None),
        ("serve.hit_p50_ms", "ms", "hit", 50),
        ("serve.hit_p99_ms", "ms", "hit", 99),
        ("serve.miss_p50_ms", "ms", "miss", 50),
    ],
}


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile, linearly interpolated between ranks
    (0 without samples: every operation failed, which ``failed`` shows)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class ChildError(RuntimeError):
    """A repetition process failed or overran the run's time limit."""


def run_child(root: Path, args: list[str], timeout: float) -> dict:
    """Run one repetition and return its JSON result.

    The child gets its own process group, so any worker it leaves behind
    is killed, and the group is awaited until empty.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _reap(child.pid)
        child.communicate()
        raise ChildError(f"repetition {' '.join(args)} overran {timeout:.0f}s")
    finally:
        _reap(child.pid)
    if child.returncode != 0:
        raise ChildError(
            f"repetition {' '.join(args)} exited {child.returncode}:\n"
            + err[-4000:]
        )
    return json.loads(out.strip().splitlines()[-1])


def _reap(group: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def measure(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    """Repetitions for ``seconds``, then set-up probes up to the minimum
    (untraced runs only: a traced run reports no set-up time).

    Returns:
        ``(reps, setup_samples)``: full repetition results in run order
        and every set-up time measured.
    """
    started = time.monotonic()
    deadline = started + seconds
    base = ["--workload", workload, "--seed", str(seed)]
    reps: list[dict] = []
    longest = 0.0
    while True:
        # The first repetition runs the in-process oracle; later ones
        # must reproduce its output digests.  A traced run starts with
        # one untraced repetition: the difference is the tracing
        # overhead.
        if not reps:
            flag = ["--verify"]
        else:
            flag = ["--trace"] if trace else []
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        begun = time.monotonic()
        reps.append(run_child(root, base + flag, remaining))
        longest = max(longest, time.monotonic() - begun)
        if trace and len(reps) < 2:
            continue
        if time.monotonic() + longest > deadline:
            break
    setups = [r["setup_s"] for r in reps if not r["traced"]]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        setups.append(run_child(root, base + ["--setup-only"], remaining)["setup_s"])
    return reps, setups


def end_to_end(workload: str, reps: list[dict], setups: list[float]) -> dict:
    """The workload's values of every end-to-end metric."""
    primary = [v for r in reps for v in r["latency_ms"].get(PRIMARY[workload], [])]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ops_per_s": sum(r["ops"] for r in reps) / sum(r["wall_s"] for r in reps),
        "op_p50_ms": percentile(primary, 50),
    }


def unstable_counts(reps: list[dict]) -> list[str]:
    """Exact counts that differ between repetitions of one run.

    Every repetition of a run replays the same inputs, so each count a
    repetition reports (tracing adds some) must read the same in all
    repetitions that report it.
    """
    names = {name for r in reps for name in r["counts"]}
    return sorted(
        name for name in names
        if len({r["counts"][name] for r in reps if name in r["counts"]}) > 1
    )


def per_layer(names: list[str], reps: list[dict]) -> dict:
    """Per-layer values: medians over the traced repetitions.

    A layer the workload never enters reads 0.
    """
    untraced_wall = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    merged = []
    for rep in reps:
        if rep["traced"]:
            values = {**rep["counts"], **rep.get("ratios", {}), **rep["layers"]}
            values["trace.wall_s"] = rep["wall_s"]
            values["trace.overhead_s"] = rep["wall_s"] - untraced_wall
            merged.append(values)
    result = {}
    for name in names:
        present = [m[name] for m in merged if name in m]
        result[name] = statistics.median(present) if present else 0
    result["trace.count_mismatches"] = len(unstable_counts(reps))
    return result


def report(workload: str, seed: int, reps: list[dict], setups: list[float],
           metrics: dict, units: dict, unstable: list[str]) -> None:
    """Human-readable lines printed before the JSON result."""
    traced = sum(r["traced"] for r in reps)
    timed = [r for r in reps if not r["traced"]]
    print(
        f"perfbench {workload}: seed {seed} (input variant "
        f"{reps[0]['variant']}), {len(reps)} repetition(s)"
        + (f", {traced} traced" if traced else "")
        + f", {len(setups)} set-up sample(s)"
    )
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)}"),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in timed),
         "MB", f"median of {len(timed)}"),
        ("failed_ratio", failed / max(1, attempted), "", f"{failed}/{attempted}"),
    ]
    ops = sum(r["ops"] for r in timed)
    wall = sum(r["wall_s"] for r in timed)
    for name, unit, sample, pct in NAMED[workload]:
        if sample is None:
            rows.append((name, ops / wall, unit, f"{ops} ops in {wall:.2f} s"))
            continue
        values = [v for r in timed for v in r["latency_ms"].get(sample, [])]
        rows.append((name, percentile(values, pct), unit, f"n={len(values)}"))
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:>12.4f} {unit:<4} ({note})")
    for name in sorted({name for r in reps for name in r["checks"]}):
        passed = sum(r["checks"].get(name, [0, 0])[0] for r in reps)
        total = sum(r["checks"].get(name, [0, 0])[1] for r in reps)
        verdict = "pass" if passed == total else "FAIL"
        print(f"  check {name}: {verdict} ({passed}/{total})")
    for rep in reps:
        for error in rep["errors"]:
            print(f"  error: {error}")
    print(
        "  exact counts: "
        + ("repeat across repetitions" if not unstable
           else "DIFFER: " + ", ".join(unstable))
        + " -- " + ", ".join(f"{k}={v}" for k, v in sorted(reps[0]["counts"].items()))
    )
    if any(r["traced"] for r in reps):
        for name in sorted(metrics):
            print(f"  {name:<40} {metrics[name]:>14.6g} {units.get(name, '')}")
        missing = sorted({m for r in reps for m in r["missing_spans"]})
        if missing:
            print("  entry points not found (unmeasured): " + ", ".join(missing))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: {workloads}")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    # The "build": byte-compile once, so no repetition pays it in set-up.
    compileall.compile_dir(str(root / "src"), quiet=1)

    try:
        reps, setups = measure(
            root, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    timed = [r for r in reps if not r["traced"]]
    if args.trace:
        group = spec["per_layer"]
        values = per_layer([m["name"] for m in group], reps)
    else:
        group = spec["end_to_end"]
        values = end_to_end(args.workload, timed, setups)
    unstable = unstable_counts(reps)
    for rep in reps[1:]:
        same = rep["digests"] == reps[0]["digests"]
        rep["checks"]["outputs_repeat_first_repetition"] = [int(same), 1]
        rep["failed"] += not same
    units = {m["name"]: m["unit"] for m in group}
    report(args.workload, args.seed, reps, setups, values, units, unstable)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in group
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
