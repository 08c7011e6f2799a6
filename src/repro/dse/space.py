"""Declarative design spaces: Table-5 knobs x tiling x workload mix.

A :class:`SearchSpace` is a base :class:`~repro.config.core_configs.CoreConfig`
plus an ordered tuple of :class:`Knob`\\ s — each a named axis with a
finite value list — and the workload mix the search optimizes for
(weighted ``(model, kwargs)`` pairs).  A *candidate* is one assignment
of a value to every knob; :meth:`SearchSpace.decode` turns it into a
concrete ``CoreConfig`` the compiler/simulator consumes.

Everything is content-addressed: the space has a digest over its
canonical dict form, and every candidate has a stable
:meth:`~SearchSpace.candidate_key` derived from the base core and the
assignment values — not from generation counters or names — so the same
design point proposed twice (or across a resume, or across two
different searches over the same space) hits the same archive entry and
the same persistent compile cache lines.

Knob axes understood by the decoder:

========================  ====================================================
``freq_factor``           multiplies ``frequency_hz``
``cube_m`` / ``cube_n``   replaces the cube tile dimension (Section 3.2 knob)
``vector_width_bytes``    absolute vector width
``l1a_factor``            multiplies the L1->L0A bus bandwidth
``l1b_factor``            multiplies the L1->L0B bus bandwidth
``ub_factor``             multiplies the UB port bandwidth
``llc_factor``            multiplies the per-core fabric bandwidth
``l1_capacity_factor``    multiplies the L1 capacity
``ub_capacity_factor``    multiplies the UB capacity
========================  ====================================================
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config.core_configs import CoreConfig, CubeShape, core_config_by_name
from ..errors import ConfigError

__all__ = [
    "Knob",
    "SearchSpace",
    "MixEntry",
    "space_by_name",
    "NAMED_SPACES",
]

Assignment = Dict[str, object]

_KNOB_NAMES = (
    "freq_factor", "cube_m", "cube_n", "vector_width_bytes",
    "l1a_factor", "l1b_factor", "ub_factor", "llc_factor",
    "l1_capacity_factor", "ub_capacity_factor",
)


@dataclass(frozen=True)
class Knob:
    """One named search axis with its finite, ordered value list."""

    name: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in _KNOB_NAMES:
            raise ConfigError(
                f"unknown DSE knob {self.name!r}; known: {_KNOB_NAMES}")
        if not self.values:
            raise ConfigError(f"knob {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"knob {self.name!r} has duplicate values")


@dataclass(frozen=True)
class MixEntry:
    """One workload of the mix the search optimizes cycles for."""

    model: str
    kwargs: Tuple[Tuple[str, object], ...]  # sorted (key, value) pairs
    weight: float = 1.0

    @classmethod
    def of(cls, model: str, kwargs: Dict[str, object] = None,
           weight: float = 1.0) -> "MixEntry":
        items = tuple(sorted((kwargs or {}).items()))
        return cls(model=model, kwargs=items, weight=float(weight))

    @property
    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)

    @property
    def label(self) -> str:
        if not self.kwargs:
            return self.model
        args = ",".join(f"{k}={v}" for k, v in self.kwargs)
        return f"{self.model}({args})"


@dataclass(frozen=True)
class SearchSpace:
    """A finite, enumerable candidate space around one base core."""

    name: str
    base_name: str
    knobs: Tuple[Knob, ...]
    mix: Tuple[MixEntry, ...]

    def __post_init__(self) -> None:
        if not self.knobs:
            raise ConfigError(f"space {self.name!r} has no knobs")
        if not self.mix:
            raise ConfigError(f"space {self.name!r} has an empty workload mix")
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ConfigError(f"space {self.name!r} repeats a knob")
        base = self.base  # validates the core name
        if any(k.name == "llc_factor" for k in self.knobs) \
                and base.llc_bw_per_core is None:
            raise ConfigError(
                f"space {self.name!r} scales llc bandwidth but base core "
                f"{self.base_name!r} has no fabric limit (Table 5 N/A)")

    # -- shape ----------------------------------------------------------------

    @property
    def base(self) -> CoreConfig:
        return core_config_by_name(self.base_name)

    def size(self) -> int:
        n = 1
        for knob in self.knobs:
            n *= len(knob.values)
        return n

    def points(self) -> Iterator[Assignment]:
        """Every assignment, in deterministic knob-major order."""
        names = [k.name for k in self.knobs]
        for combo in itertools.product(*(k.values for k in self.knobs)):
            yield dict(zip(names, combo))

    def random_assignment(self, rng: np.random.Generator) -> Assignment:
        """One rng-drawn assignment (one ``integers`` call per knob)."""
        return {k.name: k.values[int(rng.integers(len(k.values)))]
                for k in self.knobs}

    def mutate(self, assignment: Assignment, rng: np.random.Generator,
               prob: float = 0.3) -> Assignment:
        """Per-knob resample with probability ``prob`` (may pick the
        incumbent value; the caller dedups against its seen set)."""
        out = dict(assignment)
        for knob in self.knobs:
            if rng.random() < prob:
                out[knob.name] = knob.values[int(rng.integers(
                    len(knob.values)))]
        return out

    def crossover(self, a: Assignment, b: Assignment,
                  rng: np.random.Generator) -> Assignment:
        """Uniform crossover: each knob from parent a or b by coin flip."""
        return {k.name: (a if int(rng.integers(2)) == 0 else b)[k.name]
                for k in self.knobs}

    def neighbors(self, assignment: Assignment) -> Iterator[Assignment]:
        """All one-knob variations, in (knob order, value order)."""
        for knob in self.knobs:
            for value in knob.values:
                if value != assignment[knob.name]:
                    out = dict(assignment)
                    out[knob.name] = value
                    yield out

    # -- identity -------------------------------------------------------------

    def candidate_key(self, assignment: Assignment) -> str:
        """Content key of one candidate: stable across runs, processes,
        and searches — derived from the decoded knob values only."""
        blob = json.dumps({"base": self.base_name, "knobs": assignment},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": self.base_name,
            "knobs": [{"name": k.name, "values": list(k.values)}
                      for k in self.knobs],
            "mix": [{"model": m.model, "kwargs": dict(m.kwargs),
                     "weight": m.weight} for m in self.mix],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchSpace":
        try:
            knobs = tuple(Knob(k["name"], tuple(k["values"]))
                          for k in payload["knobs"])
            mix = tuple(MixEntry.of(m["model"], m.get("kwargs") or {},
                                    m.get("weight", 1.0))
                        for m in payload["mix"])
            return cls(name=str(payload["name"]),
                       base_name=str(payload["base"]),
                       knobs=knobs, mix=mix)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed search-space payload: {exc}")

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- decoding -------------------------------------------------------------

    def decode(self, assignment: Assignment,
               key: Optional[str] = None) -> CoreConfig:
        """The concrete core this assignment describes.

        The variant keeps the base cube dtypes, so any model the base
        supports runs on every candidate; the name embeds the content
        key so compile-cache lines and report labels stay stable.
        ``key`` is the assignment's :meth:`candidate_key`, when the
        caller has already hashed it.
        """
        if key is None:
            key = self.candidate_key(assignment)
        base = self.base
        kwargs: Dict[str, object] = {}
        cube_m, cube_n = base.cube.m, base.cube.n
        for knob in self.knobs:
            value = assignment[knob.name]
            if knob.name == "freq_factor":
                kwargs["frequency_hz"] = base.frequency_hz * float(value)
            elif knob.name == "cube_m":
                cube_m = int(value)
            elif knob.name == "cube_n":
                cube_n = int(value)
            elif knob.name == "vector_width_bytes":
                kwargs["vector_width_bytes"] = int(value)
            elif knob.name == "l1a_factor":
                kwargs["l1_to_l0a_bw"] = base.l1_to_l0a_bw * float(value)
            elif knob.name == "l1b_factor":
                kwargs["l1_to_l0b_bw"] = base.l1_to_l0b_bw * float(value)
            elif knob.name == "ub_factor":
                kwargs["ub_bw"] = base.ub_bw * float(value)
            elif knob.name == "llc_factor":
                kwargs["llc_bw_per_core"] = (base.llc_bw_per_core
                                             * float(value))
            elif knob.name == "l1_capacity_factor":
                kwargs["l1_bytes"] = int(base.l1_bytes * float(value))
            elif knob.name == "ub_capacity_factor":
                kwargs["ub_bytes"] = int(base.ub_bytes * float(value))
        if (cube_m, cube_n) != (base.cube.m, base.cube.n):
            kwargs["cube"] = CubeShape(cube_m, base.cube.k, cube_n)
        kwargs["name"] = f"{base.name}-dse-{key[:10]}"
        return dataclasses.replace(base, **kwargs)


# -- named spaces -------------------------------------------------------------

def _smoke_space() -> SearchSpace:
    """288 points around Ascend-Lite: the CI validation slice.

    Small enough to brute-force in the smoke gate, wide enough to have
    6 distinct (area, power) strata (3 clocks x 2 cube heights) and a
    capacity knob that is deliberately non-binding on the smoke
    workload, so exact simulated-cycle ties exercise the frontier's
    tie grouping.  Bus knobs step 4x apart: within-stratum cycle gaps
    then exceed the predictor's noise floor, which is what lets the
    epsilon window promote the true best without widening past the
    simulation budget.
    """
    return SearchSpace(
        name="smoke",
        base_name="ascend-lite",
        knobs=(
            Knob("freq_factor", (0.75, 1.0, 1.25)),
            Knob("cube_m", (4, 16)),
            Knob("l1a_factor", (0.25, 1.0)),
            Knob("l1b_factor", (0.25, 1.0)),
            Knob("ub_factor", (0.25, 1.0)),
            Knob("llc_factor", (0.5, 2.0, 8.0)),
            Knob("l1_capacity_factor", (1.0, 2.0)),
        ),
        mix=(MixEntry.of("gesture"),),
    )


def _edge_space() -> SearchSpace:
    """The ~83k-point mobile/edge space the scale benchmark searches."""
    return SearchSpace(
        name="edge",
        base_name="ascend-lite",
        knobs=(
            Knob("freq_factor", (0.5, 0.625, 0.75, 1.0, 1.25, 1.5)),
            Knob("cube_m", (4, 8, 16)),
            Knob("vector_width_bytes", (64, 128)),
            Knob("l1a_factor", (0.25, 0.5, 1.0, 2.0)),
            Knob("l1b_factor", (0.25, 0.5, 1.0, 2.0)),
            Knob("ub_factor", (0.25, 0.5, 1.0, 2.0)),
            Knob("llc_factor", (0.5, 1.0, 2.0, 4.0)),
            Knob("l1_capacity_factor", (0.5, 1.0, 2.0)),
            Knob("ub_capacity_factor", (0.5, 1.0, 2.0)),
        ),
        mix=(
            MixEntry.of("gesture", weight=1.0),
            MixEntry.of("wide_deep", weight=1.0),
            MixEntry.of("mobilenet_v2", {"batch": 1}, weight=0.5),
        ),
    )


def _datacenter_space() -> SearchSpace:
    """Inference-server space around the Ascend 610-class core."""
    return SearchSpace(
        name="datacenter",
        base_name="ascend",
        knobs=(
            Knob("freq_factor", (0.75, 1.0, 1.25, 1.5)),
            Knob("cube_m", (8, 16)),
            Knob("cube_n", (8, 16)),
            Knob("l1a_factor", (0.5, 1.0, 2.0)),
            Knob("l1b_factor", (0.5, 1.0, 2.0)),
            Knob("ub_factor", (0.5, 1.0, 2.0)),
            Knob("llc_factor", (0.5, 1.0, 2.0, 4.0)),
            Knob("l1_capacity_factor", (0.5, 1.0, 2.0)),
        ),
        mix=(
            MixEntry.of("mobilenet_v2", {"batch": 1}, weight=1.0),
            MixEntry.of("resnet18", {"batch": 1}, weight=1.0),
        ),
    )


NAMED_SPACES = {
    "smoke": _smoke_space,
    "edge": _edge_space,
    "datacenter": _datacenter_space,
}


def space_by_name(name: str) -> SearchSpace:
    try:
        return NAMED_SPACES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown search space {name!r}; known: "
            f"{sorted(NAMED_SPACES)}") from None
