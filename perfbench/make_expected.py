"""Record the expected output of every benchmark operation.

::

    python3 perfbench/make_expected.py

Runs each workload's pool once, every operation from empty caches, and
writes ``perfbench/expected.json``.  Run it only for a change that is
meant to alter simulated results; the benchmark treats any other
difference as a wrong output.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    from workloads import WORKLOADS, import_program, memo_clearers

    import_program()

    expected = {}
    with tempfile.TemporaryDirectory(prefix="perfbench-expected-") as tmp:
        for make in WORKLOADS.values():
            workload = make()
            name = workload.section
            if name in expected:
                continue
            os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / name / "setup")
            workload.setup(Path(tmp) / name)
            record = {"_setup": workload.setup_summary()}
            for index, key in enumerate(workload.pool):
                for clear in memo_clearers():
                    clear()
                os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / name /
                                                    f"op{index}")
                out = workload.run(key)
                if not workload.invariants(key, out):
                    print(f"{name} {key}: invariant violated",
                          file=sys.stderr)
                    return 1
                record[key] = workload.summary(key, out)
            expected[name] = record
            print(f"{name}: {len(workload.pool)} operations recorded")
    path = HERE / "expected.json"
    # One operation per line, so a changed result is a one-line diff.
    sections = []
    for name in sorted(expected):
        rows = [f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                for key, value in sorted(expected[name].items())]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows)
                        + "\n }")
    path.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
