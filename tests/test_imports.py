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
from mpjlab.core import Variant, sample_instances
from mpjlab.registry import build_protocol
from mpjlab.sim import run
built = build_protocol("hash4", n=8, k=3)
inst = next(sample_instances(8, 3, Variant.MPJ, count=1, seed=1))
print(run(built.handle, inst).per_player_bits)
"""
    assert fresh(code) == "[]\n(4, 4, 1)\n"


JUMP = ["mpjlab.covers", "mpjlab.jump"]
BUCKETING = ["mpjlab.bucketing"]
FAMILIES = ["mpjlab.adversary", "mpjlab.families"]
FAMILY_OF = {
    "index": JUMP,
    "mpj3-sublinear": JUMP,
    "mpjk-sublinear": JUMP,
    "bucketing": BUCKETING,
    "bucketing-doubling": BUCKETING,
    "broken-const": FAMILIES,
    "constant": FAMILIES,
    "truncate4": FAMILIES,
    "parity4": FAMILIES,
    "hash4": FAMILIES,
}


def loaded_by(call: str) -> str:
    """The mpjlab modules that `call` adds once the registry is imported,
    with a first line "refused" if it raised a ValueError."""
    return fresh(f"""
import sys
from mpjlab.registry import MAX_PLAYERS, MAX_WIDTH, build_protocol
before = set(sys.modules)
try:
    {call}
except ValueError:
    print("refused")
print(sorted(m for m in set(sys.modules) - before if m.startswith("mpjlab")))
""")


def test_the_registry_loads_no_family():
    code = "import sys, mpjlab.registry; print(sorted(m for m in sys.modules if m.startswith('mpjlab')))"
    assert fresh(code) == "['mpjlab', 'mpjlab.core', 'mpjlab.registry', 'mpjlab.sim']\n"


def test_the_table_names_every_buildable_entry():
    from mpjlab.registry import BASE_NAMES

    assert {name.replace("<t>", "4") for name in BASE_NAMES} == set(FAMILY_OF)


@pytest.mark.parametrize("name", FAMILY_OF)
def test_a_build_loads_only_its_own_family(name):
    k = None if name in ("index", "mpj3-sublinear") else 4  # a fixed k is the entry's own
    assert loaded_by(f"build_protocol({name!r}, n=8, k={k})") == f"{FAMILY_OF[name]}\n"


@pytest.mark.parametrize(
    "call",
    [
        "build_protocol('nope', n=8)",
        "build_protocol('index', n=8, k=3)",
        "build_protocol('constant', n=MAX_WIDTH + 1)",
        "build_protocol('bucketing', n=8, k=MAX_PLAYERS + 1)",
        "build_protocol('mpjk-sublinear', n=4, d=5)",
    ],
    ids=["unknown name", "fixed k", "width cap", "player cap", "d over n"],
)
def test_a_refused_build_loads_nothing(call):
    assert loaded_by(call) == "refused\n[]\n"


def test_the_cli_loads_no_protocol_family():
    code = "import sys, mpjlab.cli; print(sorted(m for m in sys.modules if m.startswith('mpjlab')))"
    assert fresh(code) == (
        "['mpjlab', 'mpjlab.adversary', 'mpjlab.cli', 'mpjlab.core', 'mpjlab.registry', "
        "'mpjlab.sim']\n"
    )
