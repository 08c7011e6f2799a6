"""The Ascend core: timing + functional execution of a Program.

The core owns its scratchpads (:class:`~repro.memory.hierarchy.CoreMemory`)
and a :class:`~repro.core.costs.CostModel` for its design point.  ``run``
first derives the schedule (Figure 3 semantics), then — unless timing-only
— replays the instructions functionally, one at a time, in causal
(start-time) order, so results are correct for any legally synchronized
program.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.core_configs import CoreConfig
from ..isa.instructions import (
    OP_COPY,
    OP_CUBE,
    OP_DECOMP,
    OP_IMG2COL,
    OP_TRANSPOSE,
    OP_VECTOR,
    OPCODE_OF,
)
from ..isa.program import Program
from ..memory.hierarchy import CoreMemory
from .costs import CostModel
from .cube import execute_cube
from .engine import schedule
from .mte import (
    execute_copy,
    execute_decompress,
    execute_img2col,
    execute_transpose,
)
from .trace import ExecutionTrace
from .vector import execute_vector

__all__ = ["AscendCore", "RunResult"]

# Functional executor per opcode with architectural effect (the rows
# ``ExecutionTrace.functional_instructions`` returns).
_EXECUTE = {
    OP_CUBE: execute_cube,
    OP_VECTOR: execute_vector,
    OP_COPY: execute_copy,
    OP_IMG2COL: execute_img2col,
    OP_TRANSPOSE: execute_transpose,
    OP_DECOMP: execute_decompress,
}


@dataclass
class RunResult:
    """Outcome of one program execution on a core."""

    trace: ExecutionTrace
    config: CoreConfig

    @property
    def cycles(self) -> int:
        return self.trace.total_cycles

    @property
    def seconds(self) -> float:
        return self.cycles / self.config.frequency_hz


class AscendCore:
    """One Ascend core instance (any design point from Table 5)."""

    def __init__(self, config: CoreConfig, gm_bytes: int = 64 * 1024 * 1024) -> None:
        self.config = config
        self.memory = CoreMemory(config, gm_bytes=gm_bytes)
        self.costs = CostModel(config)

    def run(self, program: Program, functional: bool = True,
            validate: bool = True) -> RunResult:
        """Execute a program; returns timing (and mutates GM if functional).

        Args:
            program: the instruction stream to execute.
            functional: when False, only the schedule is computed — used
                for full-network performance studies where numerics are
                irrelevant and weights would not fit in simulation memory.
            validate: run static program validation first.
        """
        if validate:
            program.validate(self.config)
        trace = schedule(program, self.costs)
        if functional:
            for instr in trace.functional_instructions():
                _EXECUTE[OPCODE_OF[type(instr)]](instr, self.memory)
        return RunResult(trace=trace, config=self.config)
