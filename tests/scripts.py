"""Load the repository's script modules by path.

``benchmarks/`` and ``perfbench/`` are directories of scripts, not
packages; tests that check a script's helpers load its file directly.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script(relative_path: str):
    """Execute ``ROOT / relative_path`` as a fresh module and return it."""
    path = ROOT / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
