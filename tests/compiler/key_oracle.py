"""The dict-then-``json.dumps`` key encoder: the oracle the one-pass
encoder in :mod:`repro.compiler.cache` is compared to.

``_canonical`` is a verbatim copy of the function that built every
persistent cache key before the keys were encoded in one pass: each
input becomes a JSON-stable dict form, which
``json.dumps(sort_keys=True, separators=(",", ":"))`` then serializes.
``model_content_key`` and ``sweep_job_key`` are its callers as they
were, reading the oracle's canonical form.
tests/compiler/test_key_equivalence.py asserts production writes the
same digest for every input, or raises where the oracle raises.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Optional

from repro.compiler.cache import SCHEMA_VERSION


def _canonical(obj: Any) -> Any:
    """JSON-stable form of the hashed inputs.

    Dataclasses become ``{type name: {field: value}}`` so renaming a type
    or field invalidates; enums hash by name; anything else non-JSON
    (e.g. ``np.dtype``) by ``str()``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.name
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {type(obj).__name__: fields}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    return str(obj)


def model_content_key(config: Any, pairs: Any,
                      scales: Optional[Dict[str, float]] = None) -> str:
    scales = scales or {}
    blob = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "config": _canonical(config),
            "layers": [
                {
                    "group": group,
                    "workload": _canonical(work),
                    "a_bytes_scale": scales.get(group, 1.0),
                }
                for group, work in pairs
            ],
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def sweep_job_key(job: Any) -> str:
    blob = json.dumps(_canonical(job), sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
