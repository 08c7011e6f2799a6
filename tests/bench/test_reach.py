"""The reach report's classifier and trace hook.

``benchmarks/reach.py`` counts a ``def`` once, keyed as its code object
names it, and must see code that only a fork child runs before it
leaves through ``os._exit``, as sweep-pool and chaos-killed workers do.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from tests.scripts import load_script

reach = load_script("benchmarks/reach.py")

FIXTURE = textwrap.dedent('''\
    import functools
    import os


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    @deco
    def decorated():
        return 1


    class Box:
        def method(self):
            return 2

        @property
        def size(self):
            return 3


    def outer():
        def inner():
            return 4
        return inner()


    def forked():
        return 5


    def never():
        return 6


    def run():
        decorated()
        Box().method()
        Box().size
        outer()
        squares = [i * i for i in range(3)]
        double = lambda x: 2 * x
        double(squares[1])
        pid = os.fork()
        if pid == 0:
            forked()
            os._exit(0)
        os.waitpid(pid, 0)
''')


# Two files with equal text: their code objects compare equal (the
# filename is not part of code-object equality), yet each file's
# property ran and must be counted.
TWIN = textwrap.dedent('''\
    class Twin:
        @property
        def value(self):
            return 1
''')


def _line(text):
    """The 1-based line of FIXTURE that reads ``text``."""
    return FIXTURE.splitlines().index(text) + 1


@pytest.fixture()
def traced(tmp_path):
    """The fixture module under a fake ``src/``, run once under the
    hook; returns (functions, reached keys)."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "fixture_mod.py").write_text(FIXTURE)
    for twin in ("twin_a", "twin_b"):
        (src / "pkg" / f"{twin}.py").write_text(TWIN)
    hook = tmp_path / "hook"
    reach.write_hook(hook)
    records = tmp_path / "records"
    env = reach.hook_env(os.environ, hook, src, records)
    subprocess.run([sys.executable, "-c",
                    "from pkg import fixture_mod, twin_a, twin_b; "
                    "fixture_mod.run(); twin_a.Twin().value; "
                    "twin_b.Twin().value"],
                   env=env, check=True)
    return reach.functions(src), reach.load_records(records, src)


def test_each_def_counts_once_with_its_body_lines(traced):
    funcs, _ = traced
    assert len({(f.module, f.qualname) for f in funcs}) == len(funcs)
    by_name = {f.qualname: f for f in funcs
               if f.module == "pkg/fixture_mod.py"}
    assert sorted(by_name) == sorted([
        "deco", "deco.<locals>.wrapper", "decorated", "Box.method",
        "Box.size", "outer", "outer.<locals>.inner", "forked", "never",
        "run"])
    assert by_name["decorated"].lines == 2
    assert by_name["Box.size"].lines == 2
    assert by_name["outer"].lines == 4
    assert by_name["outer.<locals>.inner"].lines == 2
    # A decorated def is keyed by its first decorator's line, as its
    # code object's co_firstlineno is.
    assert by_name["decorated"].first_line == _line("@deco")
    assert by_name["Box.size"].first_line == _line("    @property")


def test_lambdas_and_comprehensions_are_not_functions(traced):
    funcs, reached = traced
    assert not [f for f in funcs if "<" in f.qualname.split(".")[-1]]
    # The record holds their code objects, but they match no def.
    assert any(q.endswith(("<lambda>", "<listcomp>")) for _, _, q in reached)


def test_classes(traced):
    funcs, reached = traced
    tests_only = {f.key for f in funcs if f.qualname == "never"}
    classes = reach.classify(funcs, reached, tests_only)
    by_name = {f.qualname: c for f, c in classes.items()}
    for name in ("deco", "deco.<locals>.wrapper", "decorated", "Box.method",
                 "Box.size", "outer", "outer.<locals>.inner", "run"):
        assert by_name[name] == "entry", name
    assert by_name["never"] == "test-only"
    report = reach.report(classes, {"one": reached})
    assert "entry         11 functions" in report
    assert "test-only      1 functions      2 lines" in report
    assert f"pkg/fixture_mod.py:{_line('def never():')} never (2)" in report


def test_fork_child_record_counts(traced):
    funcs, reached = traced
    forked = next(f for f in funcs if f.qualname == "forked")
    assert forked.key in reached
    never = next(f for f in funcs if f.qualname == "never")
    assert never.key not in reached


def test_equal_code_in_two_files_counts_twice(traced):
    funcs, reached = traced
    twins = [f for f in funcs if f.qualname == "Twin.value"]
    assert sorted(f.module for f in twins) == ["pkg/twin_a.py",
                                               "pkg/twin_b.py"]
    assert all(f.key in reached for f in twins)
