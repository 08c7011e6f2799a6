"""Every cache key is pinned, byte for byte, to the dict-then-json oracle.

Production encodes a key's inputs in one pass
(:func:`repro.compiler.cache.canonical_json`); the oracle in
:mod:`tests.compiler.key_oracle` builds their dict form and serializes it
with ``json.dumps(sort_keys=True)``.  Stored compile-cache entries and
sweep checkpoints are addressed by the oracle's digests, so every case
asserts that ``model_content_key`` (whole, or spliced from a
precomputed ``model_layers_text``) and ``sweep_job_key`` return the
oracle's digest, or raise the oracle's exception type.  Cases: every
registered core with every model of perfbench's compile pool; every
gpt-tiny serving bucket; every design point of the DSE smoke space;
and hypothesis values built to break an encoder that memoizes by value
or sorts, escapes or formats differently.
"""

import dataclasses
import enum
import math
from collections import OrderedDict, namedtuple
from typing import Any, ClassVar

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import sweep_job_key
from repro.compiler import cache
from repro.compiler.graph_engine import _im2col_scales
from repro.config import ASCEND
from repro.config.core_configs import CORE_CONFIGS
from repro.config.soc_configs import soc_config_by_name
from repro.dse.space import space_by_name
from repro.dtypes import FP16, INT4, INT8
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.models import build_model
from repro.models.gpt import GPT_TINY, build_gpt, build_gpt_decode
from repro.serving.settings import serve_max_batch
from repro.serving.stepcost import StepCostModel

from tests.compiler import key_oracle as oracle
from tests.scripts import load_script


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


def _assert_model_keys_match(config, graph):
    """The model key of ``graph`` on ``config``."""
    pairs = graph.grouped_workloads()
    scales = _im2col_scales(graph)
    assert cache.model_content_key(config, pairs, scales) \
        == oracle.model_content_key(config, pairs, scales)


@pytest.mark.parametrize("model", sorted(
    {model for model, _ in load_script("perfbench/workloads.py").COMPILE_POOL}))
def test_compile_pool_on_every_core(model):
    graph = build_model(model)
    for config in CORE_CONFIGS.values():
        _assert_model_keys_match(config, graph)


def test_every_serving_bucket():
    """The prefill and decode graphs ``StepCostModel`` compiles for each
    bucket of the default serving design (gpt-tiny on Ascend 310), over
    the batches perfbench's serve set-up prices."""
    core = soc_config_by_name("ascend-310").core_groups[0][0]
    dtype = StepCostModel(GPT_TINY, core).dtype
    buckets = 0
    tokens = StepCostModel.MIN_TOKEN_BUCKET
    while tokens <= GPT_TINY.max_context:
        _assert_model_keys_match(
            core, build_gpt(GPT_TINY, batch=1, seq=tokens, dtype=dtype))
        buckets += 1
        batch = 1
        while batch < 2 * serve_max_batch():
            _assert_model_keys_match(core, build_gpt_decode(
                GPT_TINY, batch=batch, context=tokens, dtype=dtype))
            buckets += 1
            batch *= 2
        tokens *= 2
    # t16..t1024: 7 prefill + 7 x 6 decode (b1..b32) buckets.
    assert buckets == 49


def test_dse_smoke_space():
    """Each decoded design point keys its mix model (from scratch and
    spliced into the model's layer text, as a search's jobs key it) and
    its sweep job."""
    space = space_by_name("smoke")
    entry, = space.mix
    graph = build_model(entry.model, **entry.kwargs_dict)
    pairs = graph.grouped_workloads()
    scales = _im2col_scales(graph)
    configs = [space.decode(point) for point in space.points()]
    assert len(configs) == 288
    layers_text = cache.model_layers_text(pairs, scales)
    for config in configs:
        key = oracle.model_content_key(config, pairs, scales)
        assert cache.model_content_key(config, pairs, scales) == key
        assert cache.model_content_key(config, pairs, scales,
                                       layers_text) == key
        job = (entry.model, entry.kwargs_dict, config)
        assert sweep_job_key(job) == oracle.sweep_job_key(job)


# -- hypothesis values ------------------------------------------------------

@dataclasses.dataclass
class Box:
    """Unhashable (eq without frozen), with a ``name`` field as a
    workload has."""

    name: Any
    value: Any
    extra: Any = None
    ignored: ClassVar[int] = 0


@dataclasses.dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


@dataclasses.dataclass
class Empty:
    pass


@dataclasses.dataclass
class DictBox(dict):
    """A dataclass that is also a dict: it encodes as a dataclass."""

    a: Any


@dataclasses.dataclass
class ListBox(list):
    """A dataclass that is also a list: it encodes as a dataclass."""

    a: Any


# A dataclass type called "name" with a field called "name", and
# non-ASCII type and field names, which are escaped.
Named = dataclasses.make_dataclass("name", [("name", Any), ("x", Any)])
Accented = dataclasses.make_dataclass("Über", [("ß", Any), ("a", Any)])


class Color(enum.Enum):
    RED = 1
    GREEN = "g"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"


class Hex(int):
    """An int whose ``str()`` is not its JSON text."""

    def __str__(self):
        return hex(self)

    __repr__ = __str__


class Loud(float):
    """A float whose ``repr()`` is not its JSON text."""

    def __repr__(self):
        return f"Loud({float(self)})"


Point = namedtuple("Point", "x y")

_SPECIAL = (
    True, False, 1, 1.0, 0, -0.0, 0.0, math.nan, math.inf, -math.inf,
    2 ** 70, -(2 ** 63), 1e300, 5e-324, 0.1,
    Level.LOW, Level.HIGH, Color.RED, Color.GREEN, Mode.FAST,
    np.dtype(np.float16), np.dtype(np.int8), np.dtype(np.float32),
    np.float64(1.5), np.float64(math.nan), np.float32(0.25), np.int64(7),
    np.bool_(True), Hex(255), Loud(2.5), Loud(math.inf),
    FP16, INT8, INT4, ASCEND, Box, frozenset({3, 1}),
    b"bytes", 1 + 2j, "", "name", '"quoted\\"', "tab\there\nline",
    "ünï©ødé ✓ 𝄞", "\x00\x1f\x7f", "\ud800",
)

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.sampled_from(_SPECIAL))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Point, children, children),
        st.dictionaries(st.integers(-3, 3), children, max_size=4),
        st.dictionaries(st.sampled_from(["name", "a", "b", "é", "Z", "10"]),
                        children, max_size=4),
        st.dictionaries(st.one_of(st.integers(0, 2), st.text(max_size=2)),
                        children, max_size=3),       # mixed: TypeError
        st.dictionaries(st.text(max_size=3), children,
                        max_size=3).map(OrderedDict),
        st.builds(Box, children, children, children),
        st.builds(Pair, children, children),
        st.builds(Named, children, children),
        st.builds(Accented, children, children),
        st.just(Empty()),
        # One object aliased in several places.
        children.map(lambda v: Box(v, [v, v], {"a": v, "b": (v,)})),
    )


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=12)

# Equal but distinct, and encoded differently: a memo keyed by value
# would give all of them the first one's text.
_LOOKALIKES = Box([1], [True], [1.0])


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example(_LOOKALIKES)
@example(Box(True, 1, 1.0))
@example(Box(1.0, True, 1))
@example([[1], [1.0], [True], (1,), {1: 1}, {"1": True}])
@example({1: "a", 2: {"name": 1.0, "x": True}})
@example({Hex(10): Hex(11), 9: Loud(0.5)})
@example({"a": Named(1, 2), "b": Box("n", {"name": 1})})
@example(Box({1: 2, "x": 3}, 0))
@example(Box(name=0, value={1: 2, "x": 3}))
@example({float("nan"): 1, float("nan"): 2})  # str() keys collide
@example([DictBox(a=1), DictBox(a={"k": 2}), ListBox(a=[3])])
def test_canonical_json_matches_oracle(value):
    assert _outcome(sweep_job_key, value) \
        == _outcome(oracle.sweep_job_key, value)


_RAW = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(),
    st.text(max_size=6), st.none(), st.booleans(),
    st.sampled_from([Level.HIGH, np.float64(0.5), [1, 2.0], {"b": 1, "a": 2},
                     {2: 1, 1: None}, {1: 1, "a": 2}, Pair(1, 2)]))


# Dataclass workloads; the ``name`` field holds a leaf value.
_WORKLOADS = st.one_of(
    st.builds(Box, _LEAVES, _VALUES, _VALUES),
    st.builds(Named, _LEAVES, _VALUES),
    st.builds(Pair, _VALUES, _VALUES),
    st.builds(Accented, _VALUES, _VALUES),
    st.just(Empty()),
    st.builds(OpWorkload, st.text(max_size=4),
              st.lists(st.builds(GemmWork, st.integers(1, 9),
                                 st.integers(1, 9), st.integers(1, 9),
                                 st.sampled_from([FP16, INT8, INT4])),
                       max_size=2).map(tuple),
              st.lists(st.builds(VectorWork, st.integers(0, 9)),
                       max_size=2).map(tuple),
              st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
)


@settings(max_examples=300, deadline=None)
@given(config=_VALUES,
       layers=st.lists(st.tuples(_RAW, _VALUES), max_size=4),
       scales=st.one_of(st.none(), st.dictionaries(_RAW.filter(
           lambda v: isinstance(v, (str, int, float)) or v is None), _RAW,
           max_size=3)))
@example(config=ASCEND, layers=[("a", Box(1, 2)), ("a", Box(1, 2)),
                                (1, [1.0]), (True, [True])],
         scales={"a": 0.5, 1: math.nan, True: -0.0})
def test_model_content_key_matches_oracle(config, layers, scales):
    assert _outcome(cache.model_content_key, config, layers, scales) \
        == _outcome(oracle.model_content_key, config, layers, scales)


@settings(max_examples=300, deadline=None)
@given(config=st.one_of(_VALUES, st.sampled_from(list(CORE_CONFIGS.values()))),
       layers=st.lists(st.tuples(_RAW, st.one_of(_VALUES, _WORKLOADS)),
                       max_size=4),
       scales=st.one_of(st.none(), st.dictionaries(_RAW.filter(
           lambda v: isinstance(v, (str, int, float)) or v is None), _RAW,
           max_size=3)))
@example(config=ASCEND, layers=[("a", Box(1, 2)), ("a", Box(1, 2)),
                                (1, [1.0]), (True, [True])],
         scales={"a": 0.5, 1: math.nan, True: -0.0})
@example(config=_LOOKALIKES, layers=[("w", _LOOKALIKES)], scales=None)
@example(config=ASCEND, layers=[], scales={})
def test_spliced_model_key_matches_oracle(config, layers, scales):
    """A key spliced from the layer text (encoded once, apart from the
    config) is the oracle's key of the whole model."""
    def spliced():
        return cache.model_content_key(
            config, layers, scales, cache.model_layers_text(layers, scales))

    assert _outcome(spliced) \
        == _outcome(oracle.model_content_key, config, layers, scales)
