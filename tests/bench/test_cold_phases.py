"""``bench_sim_speed.measure_cold_phases`` starts every job cold.

Its phase timings are only comparable across calls (``--gate`` compares
them with a baseline recorded by another process) if no in-process memo
survives from one call to the next.  The tiling-choice memo is checked
by count, which no host load can blur.
"""

from repro.compiler import tiling

from tests.scripts import load_script


def test_every_call_repeats_the_tiling_searches():
    bench = load_script("benchmarks/bench_sim_speed.py")
    infos = []
    for _ in range(2):
        bench.measure_cold_phases([("resnet50", "ascend")])
        infos.append(tiling._choose_cached.cache_info())
    assert infos[0].misses > 0
    # Emptying the memo resets its statistics, so two cold calls end on
    # the same counts; a call that found the previous call's choices
    # would add hits where the first call missed.
    assert infos[1].misses == infos[0].misses
    assert infos[1].hits == infos[0].hits
