"""Persistent compile cache: content-addressed compiled statistics.

Compiling a layer group (lower + schedule) is pure: the resulting
statistics depend only on the workload, the core design point, and the
cost-model schema.  Layer statistics live in process memory only: the
in-memory ``GraphEngine._GLOBAL_CACHE``, a plain dict that is never
evicted, keyed by :func:`content_key`.  What this module keeps on disk
is one entry per compile, keyed by a content hash of its inputs, so
benchmark processes and the test suite skip redundant lowering +
scheduling across *process* boundaries.

Layout: ``<cache dir>/v<SCHEMA_VERSION>/``.  The cache dir comes from
``REPRO_CACHE_DIR`` (default ``.repro_cache/``); setting
``REPRO_CACHE=0`` disables the persistent tier entirely.  It holds
whole-model entries (``model-<sha256>.json``, keyed by
:func:`model_content_key`) and serving step-cost buckets
(``bucket-<sha256>.json``, keyed by :func:`bucket_key`): one GPT
prefill or decode graph's priced layers, keyed by the inputs its
builder takes (model config, batch, tokens, dtype) and the design point
rather than by the graph's content, so a hit needs neither a graph
build nor a workload hash.  Per-layer ``<sha256>.json`` entries that
older trees wrote beside them are never read and can be deleted.

Invalidation is versioned twice over: the schema version is part of both
the directory name and the hashed content, so any change to the cost
model, lowering, or payload shape is a clean miss — bump
``SCHEMA_VERSION`` whenever compiled statistics can change.  Bucket
keys add one rule: they never see the graph, so a change that alters a
GPT graph (``models/gpt.py``, an op's workload derivation, group
fusion) must bump ``SCHEMA_VERSION`` too, or stale buckets keep serving
the old graph's cost.  ``tests/serving/test_bucket_tier.py`` pins a
digest of those graphs per schema version to catch it.
Corrupt or unreadable entries are treated as misses, never errors: the
cache must lose races gracefully when parallel sweep workers share a
directory, and valid JSON of the wrong structure is quarantined.

Persistent keys are sha256 digests of canonical JSON
(:func:`canonical_json`), written in one pass over the inputs.  The
bytes are fixed: they are what the first schema's dict form serialized
with ``json.dumps(sort_keys=True, separators=(",", ":"))`` wrote, which
addresses every stored entry and sweep checkpoint, so a change to them
is a schema change and bumps ``SCHEMA_VERSION``.  The encoder keeps one
table across keys, the sorted field layout of each dataclass type; its
memo of encoded objects lives for one key and is keyed by ``id()``,
never by value (``1 == 1.0 == True`` encode differently).
``tests/compiler/key_oracle.py`` keeps the dict form, and
``tests/compiler/test_key_equivalence.py`` holds the encoder to it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:
    from ..graph.workload import OpWorkload

__all__ = ["SCHEMA_VERSION", "LAYER_FIELDS", "enabled", "cache_dir",
           "canonical_json", "content_key",
           "load", "store", "model_content_key", "model_layers_text",
           "load_model", "store_model", "bucket_key_prefix", "bucket_key",
           "load_bucket", "store_bucket",
           "note_memory_hit", "stats", "reset_stats",
           "snapshot", "merge_stats", "quarantine_dir",
           "timing_stats_bypassed"]

# Bump when lowering, the cost model, or the payload shape changes, and
# when a GPT graph changes (models/gpt.py, an op's workload derivation,
# group fusion): step-cost bucket keys hash the builders' inputs, not
# the graphs, so only this number retires their entries.
SCHEMA_VERSION = 1

# The statistics of one compiled layer, as every tier stores them
# (name and workload identity aside).
LAYER_FIELDS = (
    "cycles", "cube_cycles", "vector_cycles", "mte1_cycles", "mte2_cycles",
    "mte3_cycles", "l1_read_bytes", "l1_write_bytes", "gm_read_bytes",
    "gm_write_bytes", "instr_count",
)

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLE = "REPRO_CACHE"
_DEFAULT_DIR = ".repro_cache"

_STATS = {"hits": 0, "misses": 0, "stores": 0, "errors": 0,
          "memory_hits": 0, "model_hits": 0, "model_stores": 0,
          "quarantined": 0,
          "fault_bypasses": 0, "bucket_hits": 0, "bucket_stores": 0}


def timing_stats_bypassed() -> bool:
    """Whether compiled-timing caches are suspended for fault injection.

    Stall and sync faults perturb schedules, so while such a campaign
    is active every stats tier (the in-memory layer tier and the
    persistent model tier) is bypassed in both directions: a cached
    clean schedule would mask the injected faults, and a faulted
    schedule must never be served to a later clean run.  The step-cost
    bucket tier is bypassed too.
    Lowering is timing-independent, so the lowering memo stays on.
    """
    from ..reliability.injector import active_injector

    inj = active_injector()
    if inj is None:
        return False
    if inj.has_stall_faults() or inj.has_sync_faults():
        _STATS["fault_bypasses"] += 1
        return True
    return False


def enabled() -> bool:
    """Whether the persistent tier is active (``REPRO_CACHE=0`` disables)."""
    from ..config.env import env_flag

    return env_flag(_ENV_ENABLE, default=True)


def cache_dir() -> Path:
    """Versioned cache directory (``REPRO_CACHE_DIR``/v<SCHEMA_VERSION>)."""
    base = os.environ.get(_ENV_DIR, _DEFAULT_DIR)
    return Path(base) / f"v{SCHEMA_VERSION}"


def quarantine_dir() -> Path:
    """Where corrupt artifacts are moved for post-mortem inspection."""
    return cache_dir() / "quarantine"


def _quarantine(path: Path) -> None:
    """Move a corrupt artifact aside so the next lookup recompiles.

    Retry-with-quarantine: a truncated or garbled entry (torn write from
    a crashed worker, disk corruption, an injected cache fault) must
    never crash compilation *or* keep poisoning every subsequent read.
    Failures here degrade to the plain miss path.
    """
    try:
        directory = quarantine_dir()
        directory.mkdir(parents=True, exist_ok=True)
        os.replace(path, directory / path.name)
        _STATS["quarantined"] += 1
    except OSError:
        _STATS["errors"] += 1


# -- canonical JSON ------------------------------------------------------------------
#
# Dataclasses encode as ``{type name: {field: value}}``, enums by name,
# lists and tuples as arrays, dicts with ``str()`` keys, and anything
# else not native to JSON (``np.dtype``) by ``str()``; objects sorted by
# key, no whitespace, non-ASCII escaped.  Raw values a key adds beside
# the canonical ones (scales, group names) encode as JSON encodes them.

_ascii = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Per dataclass type: ``{"<type name>":{`` and the fields sorted by
# name, each with its encoded ``"<field>":`` prefix.  It depends on the
# type alone, so it is the one piece of encoder state kept across keys.
_LAYOUTS: Dict[type, Tuple[str, Tuple[Tuple[str, str], ...]]] = {}

# Per key computation: id(obj) -> (obj, text).  Holding the object keeps
# its id from being reused while the memo lives.  Never keyed by value:
# 1 == 1.0 == True, and those encode differently.
_Encoded = Dict[int, Tuple[Any, str]]


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _json_text(value: Any) -> str:
    """A value JSON encodes as it is (not in canonical form)."""
    cls = type(value)
    if cls is str:
        return _ascii(value)
    if cls is float:
        return _float_text(value)
    if cls is int:
        return str(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _encode(obj: Any, memo: _Encoded) -> str:
    cls = type(obj)
    if cls is str:
        return _ascii(obj)
    if cls is int:
        return str(obj)
    hit = memo.get(id(obj))
    if hit is not None:
        return hit[1]
    if obj is None:
        text = "null"
    elif obj is True:
        text = "true"
    elif obj is False:
        text = "false"
    elif isinstance(obj, str):
        text = _ascii(obj)
    elif isinstance(obj, int):
        text = int.__repr__(obj)
    elif isinstance(obj, float):
        text = _float_text(obj)
    elif isinstance(obj, enum.Enum):
        text = _encode(obj.name, memo)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        text = _dataclass_text(obj, memo)
    elif isinstance(obj, (list, tuple)):
        text = "[" + ",".join([_encode(item, memo) for item in obj]) + "]"
    elif isinstance(obj, dict):
        # As the dict form was built: items sorted by their raw keys,
        # keys through str() (a later key wins a collision), then
        # sorted as text.
        items = {str(key): _encode(value, memo)
                 for key, value in sorted(obj.items())}
        text = "{" + ",".join([_ascii(key) + ":" + value
                               for key, value in sorted(items.items())]) + "}"
    else:
        text = _ascii(str(obj))
    memo[id(obj)] = (obj, text)
    return text


def _dataclass_text(obj: Any, memo: _Encoded) -> str:
    cls = type(obj)
    layout = _LAYOUTS.get(cls)
    if layout is None:
        names = sorted(f.name for f in dataclasses.fields(cls))
        layout = _LAYOUTS[cls] = (
            "{" + _ascii(cls.__name__) + ":{",
            tuple((name, _ascii(name) + ":") for name in names))
    head, fields = layout
    return head + ",".join([prefix + _encode(getattr(obj, name), memo)
                            for name, prefix in fields]) + "}}"


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of ``obj`` (see above), in one pass."""
    return _encode(obj, {})


def content_key(config: Any, work: "OpWorkload",
                a_bytes_scale: float = 1.0) -> Tuple[Any, ...]:
    """The in-memory layer key: ``(config, work.gemms, work.vector,
    a_bytes_scale)``.

    These are exactly what lowering and the drain read, and the fields
    :func:`~repro.compiler.lowering.lower_workload` memoizes its arena
    on, so the two in-process tiers cannot disagree.  The workload's
    ``name`` and byte footprints are left out: compiled statistics never
    depend on them, and every hit path reattaches the caller's name and
    workload via ``GraphEngine._relabel``, so identically-shaped layers
    (the 12/24 transformer blocks of BERT) compile once.  Layer
    statistics are never written to disk, so the key needs neither
    canonical JSON nor a digest.
    """
    return (config, work.gemms, work.vector, a_bytes_scale)


def load(key: str, well_formed: Optional[Callable[[Dict[str, Any]], bool]]
         = None) -> Optional[Dict[str, Any]]:
    """Payload for ``key``, or None on miss/corruption/schema mismatch.

    ``well_formed`` is the entry kind's structural check, run before the
    entry counts as a hit: valid JSON it rejects (a truncated or
    hand-edited artifact) is quarantined like corrupt JSON, so it counts
    as an error and a miss instead of re-poisoning every later load.
    """
    if not enabled():
        return None
    path = cache_dir() / f"{key}.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        _STATS["misses"] += 1
        return None
    except ValueError:
        # Corrupt artifact: quarantine it and recompile instead of
        # crashing (or re-reading the same garbage forever).
        _STATS["errors"] += 1
        _STATS["misses"] += 1
        _quarantine(path)
        return None
    except OSError:
        # Unreadable (a directory, no permission): recompile, and leave
        # it where it is.
        _STATS["errors"] += 1
        _STATS["misses"] += 1
        return None
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
        _STATS["misses"] += 1
        return None
    if well_formed is not None and not well_formed(payload):
        _STATS["errors"] += 1
        _STATS["misses"] += 1
        _quarantine(path)
        return None
    _STATS["hits"] += 1
    return payload


def store(key: str, payload: Dict[str, Any]) -> None:
    """Atomically persist ``payload`` (write-to-temp + rename).

    Atomic replace keeps concurrent sweep workers from ever observing a
    torn entry; failures are counted but never raised — a read-only or
    full cache dir must not break compilation.
    """
    if not enabled():
        return
    # One ``dumps`` (the C encoder) and one write: ``json.dump`` streams
    # the same text through the pure-Python encoder.
    text = json.dumps({**payload, "schema": SCHEMA_VERSION})
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, directory / f"{key}.json")
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        _STATS["errors"] += 1
        return
    _STATS["stores"] += 1
    _maybe_corrupt(directory / f"{key}.json")


def _maybe_corrupt(path: Path) -> None:
    """Injected cache fault: garble a just-stored artifact.

    Exercises the retry-with-quarantine path end to end — the next
    :func:`load` of this key must quarantine the entry and report a
    miss, never crash.  One ``None`` check when no fault plan is active.
    """
    from ..reliability.injector import active_injector

    inj = active_injector()
    if inj is None or not inj.should_corrupt_cache():
        return
    try:
        with open(path, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00CORRUPT")
    except OSError:
        pass


def model_content_key(config: Any, pairs: Any,
                      scales: Optional[Dict[str, float]] = None,
                      layers_text: Optional[str] = None) -> str:
    """sha256 over a whole model's compile inputs.

    ``pairs`` is the ordered ``(group name, OpWorkload)`` sequence that
    :meth:`GraphEngine.compile_graph` lowers; ``scales`` the per-group
    im2col GM-fetch scales.  Hashing the ordered sequence (rather than
    the graph object) makes the key independent of graph construction
    details that do not reach the compiler.

    ``layers_text`` is :func:`model_layers_text` of the same ``pairs``
    and ``scales``, for a caller that keys one model on many design
    points: the config's encoding is spliced in front of it, and the
    bytes hashed are the same.
    """
    memo: _Encoded = {}
    config_text = _encode(config, memo)
    if layers_text is None:
        layers_text = _layers_text(pairs, scales or {}, memo)
    blob = ('{"config":' + config_text + ',"layers":[' + layers_text
            + '],"schema":' + _json_text(SCHEMA_VERSION) + "}")
    return hashlib.sha256(blob.encode()).hexdigest()


def model_layers_text(pairs: Any,
                      scales: Optional[Dict[str, float]] = None) -> str:
    """The encoded layer list of every :func:`model_content_key` of
    ``pairs`` and ``scales``: the part no design point changes."""
    return _layers_text(pairs, scales or {}, {})


def _layers_text(pairs: Any, scales: Dict[str, float],
                 memo: _Encoded) -> str:
    return ",".join(['{"a_bytes_scale":' + _json_text(scales.get(group, 1.0))
                     + ',"group":' + _json_text(group)
                     + ',"workload":' + _encode(work, memo) + "}"
                     for group, work in pairs])


# A layer row as both entry kinds store it: a dict with an int (never a
# bool) for every LAYER_FIELDS name; bucket rows also carry a str name.
_INT_ROW = (int,) * len(LAYER_FIELDS)


def _rows_well_formed(rows: Any, named: bool) -> bool:
    if type(rows) is not list:
        return False
    for row in rows:
        if (type(row) is not dict
                or tuple(map(type, map(row.get, LAYER_FIELDS))) != _INT_ROW
                or named and type(row.get("name")) is not str):
            return False
    return True


def _load_checked(name: str, well_formed: Callable[[Dict[str, Any]], bool],
                  hits: str) -> Optional[Dict[str, Any]]:
    """:func:`load` of entry ``name`` under its structural check,
    counted under ``hits``."""
    payload = load(name, well_formed)
    if payload is not None:
        _STATS[hits] += 1
    return payload


def _store_counted(name: str, payload: Dict[str, Any], stores: str) -> None:
    before = _STATS["stores"]
    store(name, payload)
    if _STATS["stores"] > before:  # not disabled, not an I/O error
        _STATS[stores] += 1


def load_model(key: str, count: int) -> Optional[Dict[str, Any]]:
    """Whole-model payload for ``key``, a model of ``count`` layer
    groups (same miss semantics as :func:`load`; model entries live
    under a ``model-`` filename prefix in the same versioned directory).

    An entry whose ``layers`` are not ``count`` well-formed rows is
    quarantined and reads as a miss.
    """
    def well_formed(payload: Dict[str, Any]) -> bool:
        rows = payload.get("layers")
        return _rows_well_formed(rows, named=False) and len(rows) == count

    return _load_checked(f"model-{key}", well_formed, "model_hits")


def store_model(key: str, payload: Dict[str, Any]) -> None:
    """Persist a whole-model artifact (atomic, failure-tolerant)."""
    _store_counted(f"model-{key}", payload, "model_stores")


def bucket_key_prefix(model: Any, core: Any, dtype: Any) -> str:
    """The part of every step-cost bucket key that one design point fixes.

    Bucket keys hash the canonical JSON of ``{"core": core, "dtype":
    dtype, "model": model, "schema": SCHEMA_VERSION, "step": [phase,
    batch, tokens]}``; this is its text up to the step, which
    :func:`bucket_key` completes.
    """
    memo: _Encoded = {}
    return ('{"core":' + _encode(core, memo)
            + ',"dtype":' + _encode(dtype, memo)
            + ',"model":' + _encode(model, memo)
            + ',"schema":' + _json_text(SCHEMA_VERSION) + ',"step":')


def bucket_key(prefix: str, phase: str, batch: int, tokens: int) -> str:
    """sha256 of one (phase, batch, tokens) bucket under ``prefix``
    (a :func:`bucket_key_prefix`)."""
    blob = prefix + canonical_json((phase, batch, tokens)) + "}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _bucket_well_formed(payload: Dict[str, Any]) -> bool:
    return (type(payload.get("cycles")) is int
            and _rows_well_formed(payload.get("layers"), named=True))


def load_bucket(key: str) -> Optional[Dict[str, Any]]:
    """A step-cost bucket entry: ``cycles`` (the bucket's price) and
    ``layers`` (each layer's ``name`` and :data:`LAYER_FIELDS`).

    None on a miss; an entry of any other structure is quarantined
    and reads as a miss.
    """
    return _load_checked(f"bucket-{key}", _bucket_well_formed,
                         "bucket_hits")


def store_bucket(key: str, payload: Dict[str, Any]) -> None:
    """Persist a step-cost bucket entry (atomic, failure-tolerant)."""
    _store_counted(f"bucket-{key}", payload, "bucket_stores")


def note_memory_hit() -> None:
    """Record an in-memory (process-local) cache hit for :func:`stats`."""
    _STATS["memory_hits"] += 1


def stats() -> Dict[str, Any]:
    """Counters for this process plus the active configuration."""
    return {**_STATS, "enabled": enabled(), "dir": str(cache_dir()),
            "schema": SCHEMA_VERSION}


def reset_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def snapshot() -> Dict[str, int]:
    """Copy of the raw counters, suitable for delta arithmetic.

    Fork-based worker pools use this to make cache statistics
    fork-aware: each worker snapshots before a job, computes the delta
    after it, and ships the delta back for :func:`merge_stats` in the
    parent — otherwise counts accumulated in workers die with them and
    sweep reports under-report misses and stores.
    """
    return dict(_STATS)


def merge_stats(delta: Dict[str, int]) -> None:
    """Fold a worker's counter delta into this process's counters.

    Unknown keys are ignored (a newer worker schema never corrupts the
    parent); values must be ints — deltas come straight from
    :func:`snapshot` subtraction.
    """
    for key, value in delta.items():
        if key in _STATS:
            _STATS[key] += int(value)
