"""repro — a functional/performance reproduction of the Ascend NPU stack.

Reproduces "Ascend: a Scalable and Unified Architecture for Ubiquitous
Deep Neural Network Computing" (HPCA 2021) as a from-scratch Python
simulator: the DaVinci-style core (scalar/vector/cube + explicit
multi-queue synchronization), the software-managed memory hierarchy, the
SoC designs (Ascend 910 / Kirin 990 5G / Ascend 610), cluster scaling,
the multi-tier compiler (Graph Engine / TBE / TIK / CCE), and the
baselines the paper compares against.

Quick start::

    import numpy as np
    from repro import AscendCore, ASCEND_MAX, matmul_op

    core = AscendCore(ASCEND_MAX)
    a = np.random.randn(128, 256).astype(np.float16)
    b = np.random.randn(256, 64).astype(np.float16)
    c, result = matmul_op(core, a, b, activation="relu")
    print(result.cycles, "cycles")
"""

from .dtypes import FP16, FP32, INT4, INT8, INT32, DType
from .errors import ReproError
from .config import (
    ASCEND,
    ASCEND_LITE,
    ASCEND_MAX,
    ASCEND_MINI,
    ASCEND_TINY,
    ASCEND_310,
    ASCEND_610,
    ASCEND_910,
    KIRIN_990_5G,
    CoreConfig,
    SocConfig,
    core_config_by_name,
    soc_config_by_name,
)
from .isa import (
    CubeMatmul,
    CopyInstr,
    Instruction,
    MemSpace,
    Pipe,
    Program,
    Region,
    SetFlag,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from .core import AscendCore, ExecutionTrace, RunResult
from .graph import Graph, GraphBuilder, OpWorkload, TensorSpec
from .models import build_model, MODEL_BUILDERS, training_workloads
from .compiler import (
    CceAssembler,
    GraphEngine,
    TbeExpr,
    TbeProgram,
    TikKernel,
    choose_tiling,
    conv2d_op,
    dense_op,
    lower_gemm,
    matmul_op,
)
from .soc import AscendSoc, AutomotiveSoc, MobileSoc, TrainingSoc
from .cluster import DataParallelTrainer, FatTreeCluster
from .analysis import l1_bandwidth_profile, memory_wall_table
from .graph.reference import ReferenceBackend
from .runtime import Device, ModelRunner, Stream

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # dtypes / errors
    "DType", "FP16", "FP32", "INT32", "INT8", "INT4", "ReproError",
    # configs
    "CoreConfig", "SocConfig", "core_config_by_name", "soc_config_by_name",
    "ASCEND_MAX", "ASCEND", "ASCEND_MINI", "ASCEND_LITE", "ASCEND_TINY",
    "ASCEND_910", "ASCEND_610", "ASCEND_310", "KIRIN_990_5G",
    # ISA
    "Instruction", "Program", "Region", "MemSpace", "Pipe",
    "CubeMatmul", "VectorInstr", "VectorOpcode", "CopyInstr",
    "SetFlag", "WaitFlag",
    # core
    "AscendCore", "RunResult", "ExecutionTrace",
    # graph / models
    "Graph", "GraphBuilder", "TensorSpec", "OpWorkload",
    "build_model", "MODEL_BUILDERS", "training_workloads",
    # compiler
    "GraphEngine", "choose_tiling", "lower_gemm",
    "matmul_op", "dense_op", "conv2d_op",
    "TbeExpr", "TbeProgram", "TikKernel", "CceAssembler",
    # SoC / cluster
    "AscendSoc", "TrainingSoc", "MobileSoc", "AutomotiveSoc",
    "DataParallelTrainer", "FatTreeCluster",
    # analysis
    "l1_bandwidth_profile", "memory_wall_table",
    # reference backend & runtime
    "ReferenceBackend", "Device", "ModelRunner", "Stream",
]
