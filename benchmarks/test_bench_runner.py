"""The simulation session: cold vs warm-cache regeneration of Fig 11.

A cold session simulates every (model, config) pair of the figure; a
warm session answers the same figure entirely from its memo, so the
warm benchmark time is pure table assembly.  The two tables must be
identical -- the cache changes cost, never results.
"""

from conftest import run_once, show

from repro.core.tile_memo import DEFAULT_TILE_MEMO
from repro.harness import run_fig11_speedup
from repro.harness.runner import SimulationSession

MODELS = ("NCF", "SNLI")


def test_fig11_cold_session(benchmark):
    # Cold means cold all the way down: no tile outcome survives from
    # an earlier test in this process.
    DEFAULT_TILE_MEMO.clear()
    session = SimulationSession()
    table = run_once(
        benchmark, run_fig11_speedup, models=MODELS, session=session
    )
    show(
        table,
        "Runner: cold session simulates 4 configs x 2 models exactly once "
        "(the counter below pins it).",
    )
    assert session.stats.simulations == len(MODELS) * 4
    assert session.unique_simulations == len(MODELS) * 4


def test_fig11_warm_session(benchmark):
    DEFAULT_TILE_MEMO.clear()
    session = SimulationSession()
    cold = run_fig11_speedup(models=MODELS, session=session)
    simulations_after_cold = session.stats.simulations
    table = run_once(
        benchmark, run_fig11_speedup, models=MODELS, session=session
    )
    show(
        table,
        "Runner: warm session regenerates Fig 11 with zero new "
        "simulations and bit-identical rows.",
    )
    assert session.stats.simulations == simulations_after_cold
    assert table.rows == cold.rows
    assert table.render() == cold.render()
