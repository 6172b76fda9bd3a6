"""One timed repetition of one benchmark workload, in a fresh interpreter.

``perfbench/run.py`` starts this script once per repetition so that every
process-global cache (the workload LRU, the Gibbs and backend
``lru_cache``s, the disk-cache handles) starts cold, the way a user's
``repro run`` or ``repro serve`` process does.  Run from the repository
root::

    PYTHONPATH=src python3 perfbench/rep.py --workload sweep_cold --seed 3

It prints one JSON object as its last line of standard output: set-up
time, timed wall, peak RSS, operation latencies, exact work counts, the
output checks and, with ``--trace``, per-layer span totals.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

# Seeds map onto this many recorded input variants (seed % VARIANTS), so
# every seed has a recorded output digest to check against.
VARIANTS = 16
DIGESTS = Path(__file__).with_name("digests.json")
WORK_DIR = Path(".perfbench")

# train_fpraker: epochs of the Fig 17 convnet per repetition.
TRAIN_EPOCHS = 5

# serve_mixed traffic per repetition.
SERVE_HITS = 1000
SERVE_MISSES = 6
SERVE_SWEEPS = 4
SERVE_SWEEP_HITS = 6
SERVE_MODELS = ("NCF", "SNLI", "Bert", "Image2Text")


def _digest(result) -> str:
    """sha256 of a result's ``to_dict()`` in sorted-key JSON."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fig11_configs() -> dict:
    """Fig 11's four comparison points (mirrors the experiment's
    ``zero``/``zero+bdc`` variants of the paper FPRaker config)."""
    from dataclasses import replace

    from repro.core.config import baseline_paper_config, fpraker_paper_config

    full = fpraker_paper_config()
    no_ob = replace(full.tile, pe=replace(full.tile.pe, ob_skip=False))
    return {
        "baseline": baseline_paper_config(),
        "zero": replace(full, tile=no_ob, base_delta_compression=False),
        "zero+bdc": replace(full, tile=no_ob, base_delta_compression=True),
        "full": None,
    }


class Rep:
    """Result accumulator of one repetition."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.out = {
            "workload": workload,
            "seed": seed,
            "variant": seed % VARIANTS,
            "traced": traced,
            "attempted": 0,
            "failed": 0,
            "errors": [],
            "checks": {},
            "latency_ms": {},
            "counts": {},
            "layers": {},
            "missing_spans": [],
        }
        self.recorder = spans.Recorder() if traced else None

    def op(self):
        """Span around one benchmark operation (no-op when untraced)."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span("bench.op")

    def sample(self, name: str, seconds: float) -> None:
        self.out["latency_ms"].setdefault(name, []).append(seconds * 1e3)

    def fail(self, what: str, exc: BaseException) -> None:
        self.out["failed"] += 1
        if len(self.out["errors"]) < 5:
            self.out["errors"].append(f"{what}: {type(exc).__name__}: {exc}")

    def check(self, name: str, passed: int, total: int) -> None:
        self.out["checks"][name] = [passed, total]
        self.out["failed"] += total - passed


# -- sweep_cold ---------------------------------------------------------------


def sweep_setup(rep: Rep) -> dict:
    """Sessions and the figure-ordered request stream."""
    from repro.harness.runner import SessionConfig, SimRequest, SimulationSession
    from repro.models.zoo import STUDIED_MODELS

    seed = rep.out["variant"]
    configs = _fig11_configs()
    roofline = SimulationSession(config=SessionConfig())
    hierarchy = SimulationSession(
        config=SessionConfig(memory_engine="hierarchy")
    )

    def req(model, name, progress=0.5):
        return SimRequest.make(model, configs[name], progress, seed)

    stream = []
    # Fig 11: the four comparison points per model.
    for model in STUDIED_MODELS:
        for name in ("baseline", "zero", "zero+bdc", "full"):
            stream.append((roofline, req(model, name)))
    # Figs 12-14 re-read Fig 11's baseline and full results.
    for names in (("baseline", "full"), ("full",), ("baseline", "full")):
        for model in STUDIED_MODELS:
            stream.extend((roofline, req(model, name)) for name in names)
    # Fig 15 under the hierarchy memory engine: new simulations, and
    # rebuilds of workloads the 8-entry workload LRU already evicted.
    for model in STUDIED_MODELS:
        stream.append((hierarchy, req(model, "full")))
    # Fig 16 re-reads.
    for model in STUDIED_MODELS:
        stream.append((roofline, req(model, "full")))
        stream.append((roofline, req(model, "zero+bdc")))
    # Fig 18: a later training-progress point.
    for model in STUDIED_MODELS:
        stream.append((roofline, req(model, "baseline", 0.8)))
        stream.append((roofline, req(model, "full", 0.8)))
    return {"stream": stream, "sessions": (roofline, hierarchy)}


def sweep_run(rep: Rep, state: dict) -> None:
    results = []
    for session, request in state["stream"]:
        rep.out["attempted"] += 1
        before = session.stats.simulations
        start = time.perf_counter()
        try:
            with rep.op():
                result = session.resolve(request)
        except Exception as exc:  # one failed request must not end the run
            rep.fail(request.model, exc)
            results.append(None)
            continue
        elapsed = time.perf_counter() - start
        if session.stats.simulations > before:
            rep.sample("sim", elapsed)
        results.append(result)
    state["results"] = results


def sweep_finish(rep: Rep, state: dict, verify: bool) -> None:
    from repro.traces.workload_cache import DEFAULT_WORKLOAD_CACHE

    sessions = state["sessions"]
    simulations = sum(s.stats.simulations for s in sessions)
    memo_hits = sum(s.stats.hits for s in sessions)
    cache = DEFAULT_WORKLOAD_CACHE.stats
    rep.out["ops"] = simulations
    rep.out["counts"].update(
        {
            "sweep.requests": len(state["stream"]),
            "harness.session.simulations": simulations,
            "harness.session.memo_hits": memo_hits,
            "traces.workload_cache.builds": cache.builds,
            "traces.workload_cache.hits": cache.hits,
        }
    )
    rep.out["ratios"] = {
        "harness.session.memo_hit_ratio": memo_hits / len(state["stream"]),
        "traces.workload_cache.hit_ratio": (
            cache.hits / max(1, cache.hits + cache.builds + cache.disk_hits)
        ),
    }
    # Digest each distinct result once, in first-occurrence order.
    seen: dict[int, str] = {}
    for result in state["results"]:
        if result is not None and id(result) not in seen:
            seen[id(result)] = _digest(result)
    rep.out["digests"] = list(seen.values())
    expected = _recorded("sweep_cold", rep.out["variant"]) or []
    got = rep.out["digests"]
    matched = (
        sum(a == b for a, b in zip(got, expected))
        if len(got) == len(expected)
        else 0
    )
    rep.check("sweep_cold.result_sha256", matched, max(len(got), len(expected)))


# -- train_fpraker -------------------------------------------------------------


def train_setup(rep: Rep) -> dict:
    """Dataset, network and optimizer of the Fig 17 FPRaker run."""
    import numpy as np

    from repro.nn.data import synthetic_images
    from repro.nn.fpmath import EngineConfig, MatmulEngine
    from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
    from repro.nn.network import Sequential
    from repro.nn.optim import SGD

    seed = rep.out["variant"]
    classes = 4
    dataset = synthetic_images(
        classes=classes, samples_per_class=150, size=8, noise=0.9, seed=seed
    )
    rng = np.random.default_rng(seed)
    engine = MatmulEngine(EngineConfig(mode="fpraker"))
    network = Sequential(
        [
            Conv2d(1, 8, 3, engine, rng, padding=1, name="conv1"),
            ReLU(),
            MaxPool2d(2),
            Conv2d(8, 16, 3, engine, rng, padding=1, name="conv2"),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(16 * 4, classes, engine, rng, name="fc"),
        ]
    )
    return {
        "dataset": dataset,
        "network": network,
        "optimizer": SGD(lr=0.04, momentum=0.9),
        "shuffle": np.random.default_rng(seed),
    }


def train_run(rep: Rep, state: dict) -> None:
    """Minibatch steps as ``Trainer.fit`` takes them, one per op."""
    from repro.nn.functional import accuracy, cross_entropy

    dataset, network = state["dataset"], state["network"]
    optimizer = state["optimizer"]
    test_accuracy = []
    for _ in range(TRAIN_EPOCHS):
        for batch_x, batch_y in dataset.batches(32, state["shuffle"]):
            rep.out["attempted"] += 1
            start = time.perf_counter()
            try:
                with rep.op():
                    logits = network.forward(batch_x, training=True)
                    _, grad = cross_entropy(logits, batch_y)
                    network.backward(grad)
                    optimizer.step(network.parameters())
            except Exception as exc:
                rep.fail("step", exc)
                continue
            rep.sample("step", time.perf_counter() - start)
        with rep.op():
            logits = network.forward(dataset.test_x, training=False)
        test_accuracy.append(accuracy(logits, dataset.test_y))
    state["test_accuracy"] = test_accuracy


def train_finish(rep: Rep, state: dict, verify: bool) -> None:
    digest = hashlib.sha256()
    for param, _ in state["network"].parameters():
        digest.update(param.astype("<f8").tobytes())
    digest.update(json.dumps(state["test_accuracy"]).encode("utf-8"))
    rep.out["ops"] = len(rep.out["latency_ms"].get("step", []))
    rep.out["counts"]["train.steps"] = rep.out["ops"]
    rep.out["digests"] = [digest.hexdigest()]
    expected = _recorded("train_fpraker", rep.out["variant"])
    rep.check(
        "train_fpraker.weights_accuracy_sha256",
        int(expected == rep.out["digests"]),
        1,
    )


# -- serve_mixed ---------------------------------------------------------------


def serve_setup(rep: Rep) -> dict:
    """A daemon on the process-pool path over a fresh, pre-warmed store."""
    import os

    import numpy as np

    from repro.harness.runner import SessionConfig, SimRequest
    from repro.service.client import ServiceClient
    from repro.service.daemon import background_daemon
    from repro.service.store import ResultStore

    variant = rep.out["variant"]
    configs = _fig11_configs()
    warm = [
        SimRequest.make(model, configs[name], 0.5, variant)
        for model in SERVE_MODELS
        for name in ("full", "zero+bdc", "baseline")
    ]
    fresh_seeds = iter(range(1000 + 97 * variant, 1000 + 97 * (variant + 1)))

    def miss(index):
        model = SERVE_MODELS[index % len(SERVE_MODELS)]
        return SimRequest.make(model, None, 0.5, next(fresh_seeds))

    # Closed-loop schedule: warm-key hits with misses and mixed /sweep
    # batches spread evenly through it.
    rng = np.random.default_rng(rep.out["seed"])
    schedule = [("hit", warm[i]) for i in rng.integers(len(warm), size=SERVE_HITS)]
    specials = [("miss", miss(i)) for i in range(SERVE_MISSES)]
    for i in range(SERVE_SWEEPS):
        picks = rng.choice(len(warm), size=SERVE_SWEEP_HITS, replace=False)
        batch = [warm[j] for j in picks] + [miss(SERVE_MISSES + i)]
        specials.append(("sweep", batch))
    stride = len(schedule) // (len(specials) + 1)
    for n, special in enumerate(specials, start=1):
        schedule.insert(n * stride + n - 1, special)

    work = WORK_DIR / f"serve-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    stack = contextlib.ExitStack()
    store = stack.enter_context(ResultStore(work))
    config = SessionConfig()
    url, _ = stack.enter_context(
        background_daemon(config, store, use_processes=True)
    )
    client = ServiceClient(url)
    outcome = client.sweep(warm)
    if outcome.statuses != ["miss"] * len(warm):
        raise RuntimeError(f"pre-warm statuses {outcome.statuses}")
    return {
        "stack": stack,
        "work": work,
        "client": client,
        "config": config,
        "warm": warm,
        "schedule": schedule,
    }


def serve_run(rep: Rep, state: dict) -> None:
    client = state["client"]
    before = client.stats()["stats"]
    answers = []  # (kind, request or batch, answer)
    for kind, payload in state["schedule"]:
        rep.out["attempted"] += 1
        start = time.perf_counter()
        try:
            with rep.op():
                if kind == "sweep":
                    outcome = client.sweep(payload)
                    answer = (outcome.statuses, outcome.results)
                else:
                    answer = client.submit(payload)
        except Exception as exc:
            rep.fail(kind, exc)
            continue
        rep.sample(kind, time.perf_counter() - start)
        answers.append((kind, payload, answer))
    after = client.stats()["stats"]
    rep.out["ops"] = len(answers)
    state["answers"] = answers
    state["daemon_delta"] = {k: after[k] - before[k] for k in after}


def serve_finish(rep: Rep, state: dict, verify: bool) -> None:
    """Check provenance, and with ``verify`` check misses and sampled
    hits against in-process resolves.

    Every repetition reports the digests of the same results, so the
    repetitions that skip the in-process oracle are checked against the
    one that ran it.
    """
    from repro.harness.runner import SimulationSession

    try:
        provenance = []  # (scheduled, answered)
        to_check = []  # (request, daemon result)
        per_model = len(state["warm"]) // len(SERVE_MODELS)
        unchecked = {
            id(state["warm"][m * per_model + rep.out["variant"] % per_model])
            for m in range(len(SERVE_MODELS))
        }
        for kind, payload, answer in state["answers"]:
            if kind == "sweep":
                statuses, results = answer
                provenance.extend(
                    zip(["hit"] * SERVE_SWEEP_HITS + ["miss"], statuses)
                )
                to_check.append((payload[-1], results[-1]))
                continue
            status, result = answer
            provenance.append((kind, status))
            if kind == "miss" or id(payload) in unchecked:
                unchecked.discard(id(payload))
                to_check.append((payload, result))
        rep.check(
            "serve_mixed.provenance",
            sum(want == got for want, got in provenance),
            len(provenance),
        )
        rep.out["digests"] = [_digest(result) for _, result in to_check]
        if verify:
            session = SimulationSession(config=state["config"])
            local = [_digest(session.resolve(request)) for request, _ in to_check]
            rep.check(
                "serve_mixed.byte_identical_to_in_process",
                sum(a == b for a, b in zip(local, rep.out["digests"])),
                len(to_check),
            )
        delta = state["daemon_delta"]
        hits = delta["hits"] + delta["disk_hits"]
        rep.out["counts"].update(
            {
                "serve.requests": len(state["schedule"]),
                "service.daemon.simulations": delta["simulations"],
                "service.daemon.hits": hits,
            }
        )
        rep.out["ratios"] = {
            "service.daemon.hit_ratio": hits / max(1, hits + delta["simulations"])
        }
    finally:
        state["stack"].close()
        shutil.rmtree(state["work"], ignore_errors=True)


WORKLOADS = {
    "sweep_cold": (sweep_setup, sweep_run, sweep_finish),
    "train_fpraker": (train_setup, train_run, train_finish),
    "serve_mixed": (serve_setup, serve_run, serve_finish),
}


def _recorded(workload: str, variant: int) -> list[str] | None:
    """The digests recorded for one workload variant, if any."""
    try:
        table = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(variant))


def _layer_metrics(rep: Rep, wall: tuple[float, float]) -> None:
    """Per-layer self times, counts and span coverage of a traced rep."""
    recorder = rep.recorder
    self_times = recorder.self_times()
    layers = {
        f"{name}.self_s": value
        for name, value in self_times.items()
        if name != "bench.op"
    }
    layers.update(recorder.counts)
    names = {name for _, name, *_ in recorder.spans} - {"bench.op"}
    since, until = wall
    layers["trace.coverage"] = recorder.covered(names, since, until) / (
        until - since
    )
    strips_s = recorder.total("core.simulate_strips")
    groups = recorder.counts.get("core.simulate_strips.groups", 0)
    layers["core.strip_groups_per_s"] = groups / strips_s if strips_s else 0.0
    if rep.out["workload"] == "serve_mixed":
        # Client-observed time not spent inside a traced daemon handler
        # or a client-side decode: transport, HTTP framing, JSON text
        # and event-loop scheduling.
        handled = recorder.covered(
            {"service.daemon.resolve", "service.daemon.resolve_sweep",
             "service.wire.decode_result"},
            since,
            until,
        )
        layers["serve.wait_s"] = recorder.total("bench.op") - handled
    rep.out["layers"] = layers
    rep.out["missing_spans"] = recorder.missing
    WORK_DIR.mkdir(exist_ok=True)
    trace_file = WORK_DIR / f"trace-{rep.out['workload']}.json"
    trace_file.write_text(
        json.dumps(
            {
                "spans": [
                    {"id": i, "name": n, "parent": p, "start": s, "end": e,
                     "thread": t}
                    for i, n, p, s, e, t in recorder.spans
                ]
            }
        )
    )


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="record spans around the layer entry points")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, then exit (a set-up sample)")
    parser.add_argument("--verify", action="store_true",
                        help="also run serve_mixed's in-process oracle "
                        "(the other workloads always check recorded digests)")
    args = parser.parse_args(argv)
    setup, run, finish = WORKLOADS[args.workload]
    rep = Rep(args.workload, args.seed, args.trace)
    state = setup(rep)
    if rep.recorder is not None:
        spans.install(rep.recorder)
    rep.out["setup_s"] = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        if "stack" in state:
            state["stack"].close()
            shutil.rmtree(state["work"], ignore_errors=True)
    else:
        start = time.perf_counter()
        run(rep, state)
        end = time.perf_counter()
        if rep.recorder is not None:
            rep.recorder.enabled = False
        rep.out["wall_s"] = end - start
        # Peak RSS of set-up and the timed phase, before any check runs.
        rep.out["peak_rss_mb"] = _peak_rss_mb()
        finish(rep, state, args.verify)
        if rep.recorder is not None:
            _layer_metrics(rep, (start, end))
    print(json.dumps(rep.out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
