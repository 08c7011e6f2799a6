"""Which ``src/`` functions the entry points reach, by measurement.

Usage::

    python benchmarks/reach.py        # or: make reach (~9 min on 2 CPUs)

Every user-facing entry point runs in a temporary copy of the tree
under a call-only trace hook: the examples, the Makefile smokes, the
README's CLI commands, ``pytest benchmarks/`` and the four perfbench
workloads.  A second pass runs tier-1 (``pytest -q``).  Each function
defined under ``src/`` is then one of three classes:

* ``entry``     -- some entry point ran it;
* ``test-only`` -- only tier-1 ran it;
* ``never``     -- nothing ran it.

The report prints the count and body lines (``def`` line to the end of
the function) of each class, in total and per module, how many
functions each entry group alone reached, and every test-only and
never function.  It is a candidate list, not a verdict: a function
reached only behind a flag that no entry point passes, or only on a
failure path, reads as unreached, so a deletion also needs a grep
showing no caller outside ``tests/``.

The hook is a ``sitecustomize.py`` on the children's ``PYTHONPATH``
only.  It installs ``sys.settrace`` and ``threading.settrace`` with a
trace function that records each code object's (file, first line,
qualified name) on its first call and traces no lines.  Code objects
are told apart by identity: two equal bodies on the same line of two
files compare equal as code objects.  A process
dumps its record at exit and also before ``os._exit``, which is how
fork-pool workers and chaos-killed workers leave.  Entry points write
results, artifacts and caches into the copy, never into this checkout.
Needs Python 3.11 or later (``co_qualname``).
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

ROOT = pathlib.Path(__file__).resolve().parents[1]

CLASSES = ("entry", "test-only", "never")

# The hook reads REACH_RECORD_DIR and REACH_SRC (not REPRO_* names:
# every CLI refuses a REPRO_* name it does not know).
HOOK_SOURCE = '''\
"""Call-only trace hook: record each src/ code object that runs."""
import atexit
import os
import sys
import tempfile
import threading

_DIR = os.environ.get("REACH_RECORD_DIR")
_SRC = os.environ.get("REACH_SRC")

if _DIR and _SRC:
    # Keyed by id, not by the code object: code objects compare equal
    # across files (the filename is not compared), so two methods with
    # the same body on the same line would share one entry.  Holding the
    # object keeps its id from being reused.
    _seen = {}
    _reached = set()

    def _trace(frame, event, arg):
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_SRC):
                _reached.add((code.co_filename, code.co_firstlineno,
                              code.co_qualname))
        return None

    def _dump():
        if not _reached:
            return
        fd, _ = tempfile.mkstemp(dir=_DIR, prefix=f"{os.getpid()}-",
                                 suffix=".tsv")
        with os.fdopen(fd, "w") as out:
            for path, line, qualname in sorted(_reached):
                out.write(f"{path}\\t{line}\\t{qualname}\\n")

    _os_exit = os._exit

    def _exit_after_dump(status):
        _dump()
        _os_exit(status)

    os._exit = _exit_after_dump
    atexit.register(_dump)
    sys.settrace(_trace)
    threading.settrace(_trace)
'''

CAVEAT = (
    "caveat: a function reached only behind a flag no entry point passes,\n"
    "or only on a failure path, reads as unreached. This is a candidate\n"
    "list: a deletion also needs a grep showing no caller in src/,\n"
    "benchmarks/, examples/ or perfbench/.")


class Function(NamedTuple):
    """One ``def`` under ``src/``, keyed as its code object names it."""

    module: str      # path relative to src/, e.g. "repro/core/costs.py"
    qualname: str    # co_qualname: "Cls.meth", "outer.<locals>.inner"
    first_line: int  # co_firstlineno: the first decorator's line, or def
    lines: int       # body lines: def line to the end of the function

    @property
    def key(self) -> Tuple[str, int, str]:
        return (self.module, self.first_line, self.qualname)


def _defs(node: ast.AST, prefix: str):
    """Yield (def node, qualname) for every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield child, qualname
            yield from _defs(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def functions(src: pathlib.Path) -> List[Function]:
    """Every function defined in a ``.py`` file under ``src``.

    Lambdas and comprehensions are expressions, not ``def``\\ s, so they
    are not counted (their code objects in a record match nothing).
    """
    out = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, qualname in _defs(tree, ""):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append(Function(module, qualname, first,
                                node.end_lineno - node.lineno + 1))
    return out


def write_hook(directory: pathlib.Path) -> pathlib.Path:
    """Write the trace hook as ``directory/sitecustomize.py``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "sitecustomize.py"
    path.write_text(HOOK_SOURCE)
    return path


def hook_env(base: Dict[str, str], hook_dir: pathlib.Path,
             src: pathlib.Path, record_dir: pathlib.Path) -> Dict[str, str]:
    """``base`` with the hook and ``src`` first on ``PYTHONPATH`` and the
    record going to ``record_dir``."""
    record_dir.mkdir(parents=True, exist_ok=True)
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(src)])
    env["REACH_RECORD_DIR"] = str(record_dir)
    env["REACH_SRC"] = str(src) + os.sep
    return env


def load_records(record_dir: pathlib.Path,
                 src: pathlib.Path) -> Set[Tuple[str, int, str]]:
    """The union of every process's record under ``record_dir``, keyed
    like ``Function.key``."""
    prefix = str(src) + os.sep
    reached = set()
    for path in sorted(record_dir.rglob("*.tsv")):
        for row in path.read_text().splitlines():
            filename, line, qualname = row.split("\t")
            if filename.startswith(prefix):
                module = pathlib.PurePath(filename[len(prefix):]).as_posix()
                reached.add((module, int(line), qualname))
    return reached


def classify(funcs: Iterable[Function], entry: Set, tests: Set
             ) -> Dict[Function, str]:
    """Each function's class: ``entry``, ``test-only`` or ``never``."""
    return {f: "entry" if f.key in entry else
               "test-only" if f.key in tests else "never"
            for f in funcs}


def _totals(classes: Dict[Function, str], funcs: Iterable[Function]):
    counts = {c: [0, 0] for c in CLASSES}
    for f in funcs:
        counts[classes[f]][0] += 1
        counts[classes[f]][1] += f.lines
    return counts


def report(classes: Dict[Function, str],
           groups: Optional[Dict[str, Set]] = None) -> str:
    """The text report: totals, per-module split, the functions each
    entry group alone reached, and every test-only and never function."""
    funcs = sorted(classes, key=lambda f: (f.module, f.first_line))
    total = _totals(classes, funcs)
    lines = [f"reach: {len(funcs)} functions in src/ "
             f"({sum(f.lines for f in funcs)} body lines)", ""]
    for c in CLASSES:
        lines.append(f"  {c:<10} {total[c][0]:>5} functions "
                     f"{total[c][1]:>6} lines")
    lines += ["", "per module: functions/lines for entry, test-only, never"]
    by_module = collections.defaultdict(list)
    for f in funcs:
        by_module[f.module].append(f)
    width = max(len(m) for m in by_module)
    for module, members in by_module.items():
        counts = _totals(classes, members)
        cells = "  ".join(f"{counts[c][0]:>4}/{counts[c][1]:<5}"
                          for c in CLASSES)
        lines.append(f"  {module:<{width}}  {cells}".rstrip())
    if groups:
        lines += ["", "reached by one entry group alone:"]
        for name, reached in groups.items():
            others = set().union(*(r for g, r in groups.items() if g != name))
            alone = sum(1 for f in funcs
                        if f.key in reached and f.key not in others)
            lines.append(f"  {name:<12} {alone:>4}")
    for c in CLASSES[1:]:
        lines += ["", f"{c} functions:"]
        lines += [f"  {f.module}:{f.first_line} {f.qualname} ({f.lines})"
                  for f in funcs if classes[f] == c]
    lines += ["", CAVEAT]
    return "\n".join(lines) + "\n"


def entry_groups(py: str, tree: pathlib.Path, out: pathlib.Path
                 ) -> Dict[str, List[Tuple[Dict[str, str], List[str]]]]:
    """The entry set, by group: (extra environment, argv) per command,
    run from the root of the copy ``tree``.  ``out`` takes the commands'
    own output files; ``{checkpoint}`` is the smoke search's checkpoint."""
    no_env: Dict[str, str] = {}
    examples = sorted((tree / "examples").glob("*.py"))
    profile = [py, "-m", "repro.profiling.cli", "run"]
    dse = [py, "-m", "repro.dse"]
    predictor = [py, "-m", "repro.perf.predictor"]
    serving = [py, "-m", "repro.serving"]
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--benchmark-disable"]
    perfbench = [py, "perfbench/run.py", "--seed", "0", "--seconds", "3"]
    return {
        "examples": [(no_env, [py, f"examples/{p.name}"]) for p in examples],
        "smokes": [
            (no_env, profile + ["gesture", "--soc", "ascend-lite",
                                "--chrome-trace", f"{out}/gesture.json",
                                "--manifest", f"{out}/gesture.manifest.json"]),
            (no_env, predictor + ["smoke"]),
            (no_env, dse + ["smoke"]),
            (no_env, dse + ["chaos-smoke"]),
            (no_env, serving + ["smoke"]),
            (no_env, [py, "benchmarks/bench_sim_speed.py", "--smoke"]),
        ],
        "cli": [
            (no_env, profile + ["resnet50", "--soc", "ascend",
                                "--chrome-trace", f"{out}/resnet50.json",
                                "--manifest",
                                f"{out}/resnet50.manifest.json"]),
            (no_env, [py, "-m", "repro.profiling.cli", "list"]),
            (no_env, predictor + ["train", "--out", f"{out}/predictor.json"]),
            (no_env, predictor + ["sweep", "--model", "gesture",
                                  "--candidates", "200", "--validate",
                                  "--artifact", f"{out}/predictor.json"]),
            (no_env, dse + ["search", "--space", "smoke",
                            "--out", f"{out}/dse"]),
            (no_env, dse + ["report", "--checkpoint", "{checkpoint}"]),
            (no_env, dse + ["frontier", "--checkpoint", "{checkpoint}",
                            "--out", f"{out}/frontier.json"]),
            (no_env, dse + ["resume", "--checkpoint", "{checkpoint}"]),
            (no_env, serving + ["run", "--soc", "ascend-310", "--mode",
                                "continuous", "--requests", "1000"]),
            (no_env, serving + ["run", "--mode", "static",
                                "--policy", "spf"]),
        ],
        "benchmarks": [
            (no_env, pytest + ["benchmarks/"]),
            ({"REPRO_PREDICT": "1"},
             pytest + ["benchmarks/bench_table5_design_points.py",
                       "benchmarks/bench_ablation_cube_m.py"]),
        ],
        "perfbench": [
            (no_env, perfbench + ["--workload", w, "--trace", t])
            for w in ("cold", "warm", "serve", "dse") for t in ("0", "1")
        ],
    }


def _copy_tree(dest: pathlib.Path) -> None:
    """Copy the checkout without ``.git`` and what ``.gitignore`` names."""
    ignored = [".git"]
    gitignore = ROOT / ".gitignore"
    if gitignore.exists():
        ignored += [line.strip().rstrip("/")
                    for line in gitignore.read_text().splitlines()
                    if line.strip() and not line.startswith("#")]
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(*ignored))


def _run(argv: Sequence[str], env: Dict[str, str], cwd: pathlib.Path,
         log: pathlib.Path) -> bool:
    t0 = time.perf_counter()
    with open(log, "w") as out:
        code = subprocess.run(argv, cwd=cwd, env=env, stdout=out,
                              stderr=subprocess.STDOUT).returncode
    label = " ".join(pathlib.Path(a).name if os.sep in a else a
                     for a in argv[1:])
    print(f"  {time.perf_counter() - t0:7.1f}s  exit {code}  {label}",
          file=sys.stderr, flush=True)
    if code != 0:
        print("".join(log.read_text().splitlines(True)[-20:]),
              file=sys.stderr)
    return code == 0


def measure(work: pathlib.Path) -> Tuple[str, List[str]]:
    """Run the entry set and tier-1 in a copy under ``work``; return the
    report and the commands that failed."""
    tree, hook, out = work / "tree", work / "hook", work / "out"
    _copy_tree(tree)
    write_hook(hook)
    out.mkdir()
    src = tree / "src"
    base = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    base["REPRO_CACHE_DIR"] = str(tree / ".repro_cache")
    failed: List[str] = []
    groups: Dict[str, Set] = {}
    for group, commands in entry_groups(sys.executable, tree, out).items():
        print(f"{group}:", file=sys.stderr)
        records = work / "records" / group
        for i, (extra, argv) in enumerate(commands):
            checkpoints = [p for p in (out / "dse").glob("dse-*.json")
                           if not p.name.startswith("dse-frontier-")]
            argv = [a.replace("{checkpoint}", str(checkpoints[0]))
                    if "{checkpoint}" in a and checkpoints else a
                    for a in argv]
            env = dict(hook_env(base, hook, src, records), **extra)
            if not _run(argv, env, tree, work / f"{group}-{i}.log"):
                failed.append(" ".join(argv[1:]))
        groups[group] = load_records(records, src)
    print("tier-1:", file=sys.stderr)
    tests = work / "records" / "tests"
    if not _run([sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider"],
                hook_env(base, hook, src, tests), tree, work / "tests.log"):
        failed.append("pytest -q")
    entry = set().union(*groups.values())
    classes = classify(functions(src), entry, load_records(tests, src))
    return report(classes, groups), failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.parse_args(argv)
    if sys.version_info < (3, 11):
        print("reach needs Python 3.11+ (co_qualname)", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        text, failed = measure(pathlib.Path(work))
    print(text, end="")
    print(f"measured in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    for command in failed:
        print(f"FAILED: {command}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
