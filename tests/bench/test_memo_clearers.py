"""The benchmark can empty every in-process memo tier of the program.

``perfbench/workloads.py::memo_clearers`` finds the tiers by name (any
module or class attribute whose name says memo or cache and that has a
``clear``) and calls each before every timed operation.  An attribute
that matches but cannot be cleared, such as a typing alias of ``dict``,
breaks every benchmark run.
"""

from repro.dse import engine as dse_engine
from repro.perf.predictor.sweep import clear_memo_tiers
from repro.profiling.manifest import git_describe
from tests.scripts import load_script


def test_every_memo_clearer_runs():
    workloads = load_script("perfbench/workloads.py")
    workloads.import_program()
    # The ``git describe`` memo is one of the tiers, so every operation
    # pays the one describe a fresh process pays.
    git_describe()
    assert git_describe.cache_info().currsize == 1
    clearers = workloads.memo_clearers()
    assert clearers
    for clear in clearers:
        clear()
    assert git_describe.cache_info().currsize == 0


def test_the_dse_mix_memo_is_emptied():
    """A timed dse operation rebuilds its mix as a fresh ``python -m
    repro.dse`` does, and so does each leg of a validated triage run."""
    workloads = load_script("perfbench/workloads.py")
    workloads.import_program()
    dse_engine._mix_model("gesture", {})
    assert dse_engine._MIX_MEMO
    for clear in workloads.memo_clearers():
        clear()
    assert not dse_engine._MIX_MEMO

    dse_engine._mix_model("gesture", {})
    clear_memo_tiers()
    assert not dse_engine._MIX_MEMO
