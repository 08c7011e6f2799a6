"""The flag-channel id map shared by the compiler and the timing engine.

A *channel* is the (src_pipe, dst_pipe, event_id) triple a
``set_flag``/``wait_flag`` pair synchronizes on.  The compiler assigns one
purpose per event id (FIFO per channel); the timing engine keys its
channel FIFOs by the packed integer form.  Both sides — and the tests —
import this module, so the table exists exactly once.

GEMM pipeline events (``lower_gemm``):

====  =================  ==========================================
id    channel            meaning
====  =================  ==========================================
0     MTE2 -> MTE1       L1 stage (A strip + B panel) ready
1     MTE1 -> MTE2       L1 stage slot released
2     MTE1 -> M          L0A/L0B feed ready
3     M -> MTE1          L0 feed slot released
4     M -> V             L0C output tile complete
5     V -> M             L0C slot released
6     V -> MTE3          UB tile ready
7     MTE3 -> V          UB slot released
9     M -> MTE1          resident B column retired (weight-stationary)
====  =================  ==========================================

Vector streaming events (``lower_vector_work``) reuse low ids on
disjoint pipe pairs — channels are triples, so there is no collision:

====  =================  ==========================================
id    channel            meaning
====  =================  ==========================================
0     V -> MTE2          UB chunk slot released
1     MTE2 -> V          UB chunk ready
2     V -> MTE3          UB chunk result ready
====  =================  ==========================================
"""

from __future__ import annotations

from typing import Dict, Tuple

from .pipes import Pipe

__all__ = [
    "EV_L1_STAGE_READY",
    "EV_L1_STAGE_FREE",
    "EV_L0_FEED_READY",
    "EV_L0_FEED_FREE",
    "EV_L0C_TILE_READY",
    "EV_L0C_TILE_FREE",
    "EV_UB_TILE_READY",
    "EV_UB_TILE_FREE",
    "EV_B_RESIDENT_FREE",
    "EV_VEC_SLOT_FREE",
    "EV_VEC_CHUNK_READY",
    "EV_VEC_RESULT_READY",
    "GEMM_CHANNELS",
    "VECTOR_CHANNELS",
    "N_PIPES",
    "pack_channel",
    "unpack_channel",
]

# -- GEMM pipeline event ids (one purpose per id) -----------------------------

EV_L1_STAGE_READY = 0   # MTE2 -> MTE1
EV_L1_STAGE_FREE = 1    # MTE1 -> MTE2
EV_L0_FEED_READY = 2    # MTE1 -> M
EV_L0_FEED_FREE = 3     # M -> MTE1
EV_L0C_TILE_READY = 4   # M -> V
EV_L0C_TILE_FREE = 5    # V -> M
EV_UB_TILE_READY = 6    # V -> MTE3
EV_UB_TILE_FREE = 7     # MTE3 -> V
EV_B_RESIDENT_FREE = 9  # M -> MTE1 (weight-stationary schedule only)

# -- vector streaming event ids ----------------------------------------------

EV_VEC_SLOT_FREE = 0     # V -> MTE2
EV_VEC_CHUNK_READY = 1   # MTE2 -> V
EV_VEC_RESULT_READY = 2  # V -> MTE3

_Channel = Tuple[Pipe, Pipe, int]

GEMM_CHANNELS: Dict[_Channel, str] = {
    (Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY): "L1 stage ready",
    (Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE): "L1 stage slot released",
    (Pipe.MTE1, Pipe.M, EV_L0_FEED_READY): "L0A/L0B feed ready",
    (Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE): "L0 feed slot released",
    (Pipe.M, Pipe.V, EV_L0C_TILE_READY): "L0C output tile complete",
    (Pipe.V, Pipe.M, EV_L0C_TILE_FREE): "L0C slot released",
    (Pipe.V, Pipe.MTE3, EV_UB_TILE_READY): "UB tile ready",
    (Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE): "UB slot released",
    (Pipe.M, Pipe.MTE1, EV_B_RESIDENT_FREE): "resident B column retired",
}

VECTOR_CHANNELS: Dict[_Channel, str] = {
    (Pipe.V, Pipe.MTE2, EV_VEC_SLOT_FREE): "UB chunk slot released",
    (Pipe.MTE2, Pipe.V, EV_VEC_CHUNK_READY): "UB chunk ready",
    (Pipe.V, Pipe.MTE3, EV_VEC_RESULT_READY): "UB chunk result ready",
}

# -- packed integer form ------------------------------------------------------

N_PIPES = len(Pipe)


def pack_channel(src: Pipe, dst: Pipe, event: int) -> int:
    """Pack a (src_pipe, dst_pipe, event_id) channel into one int.

    Pipes hash and index as plain ints (:class:`Pipe` is an ``IntEnum``),
    so the packed form is what the timing engine keys its FIFO tables by.
    It is plain arithmetic, so the arena packs its flag columns with it
    too (int64 ``event``, int8 pipe columns).
    """
    return (event * N_PIPES + src) * N_PIPES + dst


def unpack_channel(packed: int) -> _Channel:
    """Invert :func:`pack_channel`."""
    dst = packed % N_PIPES
    rest = packed // N_PIPES
    return Pipe(rest % N_PIPES), Pipe(dst), rest // N_PIPES
