"""Profiling CLI: model -> counters, roofline, Perfetto trace, manifest.

The zero-to-flamechart path::

    python -m repro.profiling.cli run resnet50 --soc ascend \\
        --chrome-trace resnet50.json --manifest resnet50.manifest.json

lowers and schedules every layer group of the model on the chosen
design point, prints the per-pipe counter registry and the per-layer
roofline attribution, and (optionally) writes a Chrome ``trace_event``
JSON loadable in https://ui.perfetto.dev plus a provenance manifest
and a counters JSON.

``list`` enumerates the model zoo and the Table 5 design points.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from ..config.core_configs import CORE_CONFIGS, core_config_by_name
from ..config.env import check_knob_names
from ..core.costs import CostModel
from ..core.engine import schedule
from ..core.trace import ExecutionTrace
from ..compiler.lowering import lower_workload
from ..errors import ReproError
from ..graph.workload import OpWorkload
from ..isa.pipes import Pipe
from ..models import build_model
from ..models.zoo import MODEL_BUILDERS
from .chrome_trace import write_chrome_trace
from .counters import PerfCounters
from .manifest import RunManifest
from .roofline import layer_rooflines, roofline_table

__all__ = ["main"]


def _build_graph(model: str, batch: int, seq: int):
    kwargs = {}
    if batch != 1:
        kwargs["batch"] = batch
    if model.startswith("bert") and seq != 128:
        kwargs["seq"] = seq
    return build_model(model, **kwargs)


def _compile_sections(graph, config
                      ) -> List[Tuple[str, ExecutionTrace, OpWorkload]]:
    """(group, trace, workload) per layer group, in model order: every
    group lowered in one batch, each scheduled alone.  No compile cache
    tier is read or written."""
    from ..compiler.graph_engine import _im2col_scales

    costs = CostModel(config)
    scales = _im2col_scales(graph)
    pairs = graph.grouped_workloads()
    programs = lower_workload([work for _, work in pairs], config,
                              [scales.get(group, 1.0) for group, _ in pairs])
    return [(group, schedule(program, costs), work)
            for (group, work), program in zip(pairs, programs)]


def _pipe_table(counters: PerfCounters) -> str:
    from ..analysis.reporting import ascii_table

    rows = []
    for pipe in (Pipe.MTE2, Pipe.MTE1, Pipe.M, Pipe.V, Pipe.MTE3, Pipe.S):
        rows.append((
            pipe.name,
            f"{counters.busy(pipe):,}",
            f"{counters.utilization(pipe):6.1%}",
            f"{counters.wait(pipe):,}",
        ))
    return ascii_table(
        ("pipe", "busy cycles", "occupancy", "stalled (flag waits)"),
        rows,
        title=f"total: {counters.total_cycles:,} cycles over "
              f"{counters.events:,} events",
    )


def _flag_lines(counters: PerfCounters, top: int = 8) -> str:
    if not counters.flag_waits:
        return "flag channels: none waited on"
    ranked = sorted(counters.flag_waits.items(),
                    key=lambda item: item[1][1], reverse=True)
    lines = ["hottest flag channels (stalled cycles):"]
    for channel, (count, stalled) in ranked[:top]:
        lines.append(f"  {channel:<16} {stalled:>12,} cycles "
                     f"over {count:,} waits")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    config = core_config_by_name(args.soc)
    graph = _build_graph(args.model, args.batch, args.seq)

    sections = _compile_sections(graph, config)
    per_layer = [PerfCounters.from_trace(trace)
                 for _group, trace, _work in sections]
    totals = PerfCounters.merged(per_layer).attach_environment()

    manifest = RunManifest.collect(
        model=graph.name, config=config.name,
        extras={"batch": args.batch, "seq": args.seq,
                "layer_groups": len(sections)},
    )

    print(f"{graph.name} on {config.name}")
    print()
    print(_pipe_table(totals))
    print()
    print(_flag_lines(totals))
    print()
    rooflines = layer_rooflines(
        [(group, work, counters)
         for (group, _trace, work), counters in zip(sections, per_layer)],
        config,
    )
    print(roofline_table(rooflines))

    if args.chrome_trace:
        write_chrome_trace(
            args.chrome_trace,
            [(group, trace) for group, trace, _work in sections],
            manifest=manifest.to_dict(),
            include_flags=not args.no_flags,
        )
        print(f"chrome trace -> {args.chrome_trace} "
              "(load in ui.perfetto.dev)")
    if args.counters:
        with open(args.counters, "w", encoding="utf-8") as handle:
            json.dump(totals.to_dict(), handle, indent=2)
        print(f"counters -> {args.counters}")
    if args.manifest:
        manifest.write(args.manifest)
        print(f"manifest -> {args.manifest}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("models:", ", ".join(sorted(MODEL_BUILDERS)))
    print("design points:", ", ".join(sorted(CORE_CONFIGS)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profiling.cli",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="profile one model on one design point")
    run.add_argument("model", help="zoo model name (see 'list')")
    run.add_argument("--soc", default="ascend",
                     help="design point name (default: ascend)")
    run.add_argument("--batch", type=int, default=1)
    run.add_argument("--seq", type=int, default=128,
                     help="sequence length (BERT models)")
    run.add_argument("--chrome-trace", metavar="PATH",
                     help="write a Perfetto-loadable trace_event JSON")
    run.add_argument("--counters", metavar="PATH",
                     help="write the counter registry as JSON")
    run.add_argument("--manifest", metavar="PATH",
                     help="write the run manifest as JSON")
    run.add_argument("--no-flags", action="store_true",
                     help="omit flag slices/arrows from the chrome trace")
    run.set_defaults(func=_cmd_run)

    lister = sub.add_parser("list", help="list models and design points")
    lister.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        check_knob_names()
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
