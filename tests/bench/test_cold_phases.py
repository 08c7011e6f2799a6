"""``bench_sim_speed.measure_cold_phases`` starts every job cold.

Its phase timings are only comparable across calls (``--gate`` compares
them with a baseline recorded by another process) if no in-process memo
survives from one call to the next.  The lowering memo, which holds
every tiling choice, is checked by counting the GEMM shapes the tiling
passes price, which no host load can blur.
"""

from repro.compiler import lowering

from tests.scripts import load_script


def test_every_call_repeats_the_tiling_searches(monkeypatch):
    bench = load_script("benchmarks/bench_sim_speed.py")
    priced = []
    search = lowering.tiling_spaces

    def spy(shapes, config):
        priced.extend(shapes)
        return search(shapes, config)

    monkeypatch.setattr(lowering, "tiling_spaces", spy)
    counts = []
    for _ in range(2):
        priced.clear()
        bench.measure_cold_phases([("resnet50", "ascend")])
        counts.append(len(priced))
    # A call that found the previous call's lowerings would price fewer.
    assert counts[0] > 0
    assert counts[1] == counts[0]
