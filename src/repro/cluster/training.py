"""Data-parallel distributed training on Ascend 910 clusters (Section 8).

Combines the single-chip step time (from :class:`~repro.soc.training_soc.
TrainingSoc`) with the hierarchical allreduce cost to produce scaling
curves and MLPerf-style time-to-train estimates — the paper's headline
is ResNet-50/ImageNet in under 83 s on 256 chips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..reliability.checkpoint import (
    CheckpointedRun,
    CheckpointPolicy,
    expected_runtime,
)
from ..soc.soc import SocRunResult
from ..soc.training_soc import TrainingSoc
from .collectives import hierarchical_allreduce_seconds
from .topology import FatTreeCluster

__all__ = [
    "DataParallelTrainer",
    "TimeToTrain",
    "FaultTolerantTimeToTrain",
]

_IMAGENET_IMAGES = 1_281_167


@dataclass(frozen=True)
class TimeToTrain:
    """Result of a distributed training estimate."""

    chips: int
    global_batch: int
    step_seconds: float
    compute_seconds: float
    allreduce_seconds: float
    steps: int

    @property
    def total_seconds(self) -> float:
        return self.step_seconds * self.steps

    @property
    def scaling_efficiency(self) -> float:
        """Fraction of linear speedup kept after communication."""
        return self.compute_seconds / self.step_seconds

    @property
    def images_per_second(self) -> float:
        return self.global_batch / self.step_seconds


@dataclass(frozen=True)
class FaultTolerantTimeToTrain:
    """A :class:`TimeToTrain` wrapped with checkpoint/restart reality.

    ``ideal`` is the failure-free estimate; ``checkpointed`` applies the
    Young/Daly renewal model for the given per-chip MTBF, so the
    effective time-to-train bends away from linear scaling once the
    cluster-level failure rate catches up with the shrinking compute.
    """

    ideal: TimeToTrain
    checkpointed: CheckpointedRun
    mtbf_hours_per_chip: float

    @property
    def chips(self) -> int:
        return self.ideal.chips

    @property
    def total_seconds(self) -> float:
        """Expected wall clock including checkpoints and recompute."""
        return self.checkpointed.effective_seconds

    @property
    def overhead_factor(self) -> float:
        """effective / failure-free (1.0 = failures cost nothing)."""
        return self.checkpointed.overhead_factor


class DataParallelTrainer:
    """Synchronous data-parallel training over the 910 cluster."""

    def __init__(self, cluster: Optional[FatTreeCluster] = None,
                 overlap_fraction: float = 0.7) -> None:
        """``overlap_fraction`` of the allreduce hides under backward
        compute (gradient bucketing), the HCCL default behaviour."""
        if not 0 <= overlap_fraction <= 1:
            raise SchedulingError("overlap fraction must be in [0, 1]")
        self.cluster = cluster or FatTreeCluster()
        self.overlap_fraction = overlap_fraction

    def step(self, per_chip: SocRunResult, grad_bytes: float,
             chips: int) -> Tuple[float, float, float]:
        """(step_s, compute_s, exposed allreduce_s) for one global step."""
        if chips <= 0 or chips > self.cluster.chips:
            raise SchedulingError(
                f"chips must be in [1, {self.cluster.chips}], got {chips}"
            )
        compute = per_chip.step_seconds
        comm = hierarchical_allreduce_seconds(grad_bytes, chips, self.cluster)
        exposed = comm * (1 - self.overlap_fraction)
        return compute + exposed, compute, exposed

    # -- ResNet-50 / ImageNet (the paper's headline run) ---------------------------

    def resnet50_time_to_train(self, chips: int, per_chip_batch: int = 32,
                               epochs: int = 44,
                               soc: Optional[TrainingSoc] = None
                               ) -> TimeToTrain:
        """MLPerf-style ResNet-50 time-to-train (epochs to 75.9% top-1)."""
        soc = soc or TrainingSoc()
        per_chip = soc.resnet50_training(batch=per_chip_batch)
        grad_bytes = 25.5e6 * 2  # ResNet-50 fp16 gradients
        step_s, compute_s, comm_s = self.step(per_chip, grad_bytes, chips)
        global_batch = per_chip_batch * chips
        steps = math.ceil(epochs * _IMAGENET_IMAGES / global_batch)
        return TimeToTrain(chips=chips, global_batch=global_batch,
                           step_seconds=step_s, compute_seconds=compute_s,
                           allreduce_seconds=comm_s, steps=steps)

    def time_to_train_with_failures(
            self, chips: int, mtbf_hours_per_chip: float = 25000.0,
            per_chip_batch: int = 32, epochs: int = 44,
            soc: Optional[TrainingSoc] = None,
            policy: Optional[CheckpointPolicy] = None,
    ) -> FaultTolerantTimeToTrain:
        """ResNet-50 time-to-train under MTBF-driven chip failures.

        The failure-free estimate is stretched by the checkpoint/restart
        renewal model (:mod:`repro.reliability.checkpoint`); an
        unsurvivable configuration comes back with ``inf`` wall clock
        rather than raising, so sweeps can plot the cliff.
        """
        ideal = self.resnet50_time_to_train(
            chips, per_chip_batch=per_chip_batch, epochs=epochs, soc=soc)
        run = expected_runtime(ideal.total_seconds, mtbf_hours_per_chip,
                               chips, policy=policy)
        return FaultTolerantTimeToTrain(
            ideal=ideal, checkpointed=run,
            mtbf_hours_per_chip=mtbf_hours_per_chip)

    def failure_scaling_curve(
            self, chip_counts: Sequence[int],
            mtbf_hours_per_chip: float = 25000.0,
            per_chip_batch: int = 32,
            soc: Optional[TrainingSoc] = None,
            policy: Optional[CheckpointPolicy] = None,
    ) -> List[FaultTolerantTimeToTrain]:
        """Failure-aware scaling curve across cluster sizes."""
        soc = soc or TrainingSoc()
        return [
            self.time_to_train_with_failures(
                chips, mtbf_hours_per_chip=mtbf_hours_per_chip,
                per_chip_batch=per_chip_batch, soc=soc, policy=policy)
            for chips in chip_counts
        ]

    def scaling_curve(self, chip_counts: Sequence[int],
                      per_chip_batch: int = 32,
                      soc: Optional[TrainingSoc] = None
                      ) -> List[TimeToTrain]:
        """Throughput/efficiency across cluster sizes (1 -> 2048 chips)."""
        soc = soc or TrainingSoc()
        return [
            self.resnet50_time_to_train(chips, per_chip_batch=per_chip_batch,
                                        soc=soc)
            for chips in chip_counts
        ]
