"""Ablation (Section 3.2): instruction compression on the Lite core.

«The instruction compression technique is used in the Ascend-Lite core
to reduce the bandwidth pressure on the NoC.»  Measure instruction-image
sizes and compression ratios for real compiled kernels, and translate
them into NoC bandwidth saved at a given inference rate.
"""

from repro.analysis import ascii_table
from repro.compiler import GraphEngine, lower_workload
from repro.config import ASCEND_LITE, KIRIN_990_5G
from repro.isa.encoding import compress_program, compression_ratio, encode_program
from repro.models import build_model


def _measure():
    graph = build_model("mobilenet_v2", batch=1)
    rows = []
    total_raw = total_packed = 0
    pairs = graph.grouped_workloads()[:8]
    programs = lower_workload([work for _, work in pairs], ASCEND_LITE)
    for (group, _), program in zip(pairs, programs):
        raw = len(encode_program(program))
        packed = len(compress_program(program))
        total_raw += raw
        total_packed += packed
        rows.append((group, len(program), raw, packed, raw / packed))
    return rows, total_raw, total_packed


def test_instruction_compression_on_lite(report, benchmark):
    rows, total_raw, total_packed = benchmark.pedantic(_measure, rounds=1,
                                                       iterations=1)
    fps = 30  # continuous vision at 30 inferences/s re-fetches kernels
    link = KIRIN_990_5G.noc.link_bandwidth
    raw_bw = total_raw * fps
    packed_bw = total_packed * fps
    table = [[g, n, f"{raw / 1024:.1f} KiB", f"{packed / 1024:.1f} KiB",
              f"{ratio:.1f}x"] for g, n, raw, packed, ratio in rows]
    table.append(["TOTAL (8 layers)", "-", f"{total_raw / 1024:.1f} KiB",
                  f"{total_packed / 1024:.1f} KiB",
                  f"{total_raw / total_packed:.1f}x"])
    report("ablation_icache", ascii_table(
        ["layer", "instrs", "raw image", "compressed", "ratio"], table,
        title=(f"Section 3.2 — instruction compression "
               f"(NoC: {raw_bw / 1e6:.1f} -> {packed_bw / 1e6:.1f} MB/s "
               f"at {fps} fps, {packed_bw / link:.2%} of one link)")))

    assert total_raw / total_packed > 3.0  # tile loops compress well
    assert packed_bw < 0.01 * link  # instruction traffic becomes noise
    for _, _, raw, packed, _ in rows:
        assert packed < raw
