"""Benchmark helpers: run each experiment once and print its table."""

import pathlib
import sys

import pytest

RESULTS_FILE = pathlib.Path(__file__).parent / "results" / "latest.txt"

# The reference engines some timing gates compare against are test
# oracles (``strip_oracles``); they live beside the tests that pin them.
sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tests" / "core"))


def run_once(benchmark, func, *args, **kwargs):
    """Execute an experiment exactly once under the benchmark timer.

    The experiments are deterministic and minutes-scale, so one round is
    both sufficient and necessary.

    Args:
        benchmark: the pytest-benchmark fixture.
        func: experiment entry point.
        *args: forwarded.
        **kwargs: forwarded.

    Returns:
        The experiment's return value.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def show(result, paper_note: str) -> None:
    """Print an experiment table (or tuple of tables) plus the paper anchor.

    The rendered tables also append to ``benchmarks/results/latest.txt``
    so the regenerated figures survive pytest's output capture.
    """
    tables = result if isinstance(result, tuple) else (result,)
    lines = []
    print()
    for table in tables:
        table.show()
        lines.append(table.render())
    print(f"Paper reference: {paper_note}")
    lines.append(f"Paper reference: {paper_note}\n")
    RESULTS_FILE.parent.mkdir(exist_ok=True)
    with RESULTS_FILE.open("a") as handle:
        handle.write("\n".join(lines) + "\n")
