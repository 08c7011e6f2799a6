"""The benchmark can empty every in-process memo tier of the program.

``perfbench/workloads.py::memo_clearers`` finds the tiers by name (any
module or class attribute whose name says memo or cache and that has a
``clear``) and calls each before every timed operation.  An attribute
that matches but cannot be cleared, such as a typing alias of ``dict``,
breaks every benchmark run.
"""

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
