"""Each module imports on its own: the package re-exports nothing, so no
fixed import order hides an import cycle between modules."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mpjlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(mpjlab.__path__))
ENV = {**os.environ, "PYTHONPATH": str(Path(mpjlab.__file__).resolve().parents[1])}


def fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports mpjlab from this tree."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_every_module_is_listed():
    assert {"adversary", "cli", "core", "registry", "sim"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    fresh(f"import mpjlab.{module}")


def test_package_holds_only_its_version():
    public = fresh("import mpjlab; print(sorted(n for n in vars(mpjlab) if n[0] != '_'))")
    assert public == "[]\n"
    assert fresh("import mpjlab; print(mpjlab.__version__)") == "0.1.0\n"


def test_only_the_hash_target_loads_hashlib():
    code = """
import sys
import mpjlab.cli
print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
from mpjlab.core import Variant, sample_instance
from mpjlab.registry import build_protocol
from mpjlab.sim import run
built = build_protocol("hash4", n=8, k=3)
inst = sample_instance(8, 3, Variant.MPJ, seed=1)
print(run(built.handle, inst).per_player_bits)
"""
    assert fresh(code) == "[]\n(4, 4, 1)\n"
