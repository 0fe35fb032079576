"""Recorded CLI bytes: each command's exit code, stdout and stderr, replayed.

`tests/golden/cli.txt` holds one block per command in COMMANDS:

    === <argv after `mpjlab`>
    --- exit <code>
    <stdout>
    --- stderr          (only when stderr is not empty)
    <stderr>

A refactor that keeps behaviour leaves every block byte-identical. After a
deliberate output change, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff. No command uses d > n.
"""

import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from mpjlab.cli import SEED_ENV_VAR, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"

COMMANDS = (
    "run --protocol index --n 6 --seed 5",
    "run --protocol mpj3-sublinear --n 5 --d 2 --seed 3",
    "run --protocol mpjk-sublinear --n 6 --k 4 --d 2 --seed 5",
    "run --protocol mpjk-sublinear --n 5 --k 5 --d 1 --seed 6",
    "run --protocol mpjk-sublinear --n 4 --k 6 --d 3 --seed 7",
    "run --protocol bucketing --n 8 --k 4 --seed 1 --emit-buckets",
    "run --protocol bucketing --n 16 --k 5 --seed 4 --emit-buckets",
    "run --protocol bucketing-doubling --n 8 --k 4 --seed 2 --emit-buckets",
    "run --protocol bucketing-doubling --n 2 --k 3 --seed 1 --emit-buckets",
    "verify --protocol mpj3-sublinear --n 3 --d 1 --exhaustive",
    "verify --protocol mpj3-sublinear --n 3 --d 2 --exhaustive --format json",
    "verify --protocol mpjk-sublinear --n 2 --k 4 --d 2 --exhaustive",
    "verify --protocol bucketing --n 8 --k 4 --samples 50 --seed 2 --format json",
    "verify --protocol bucketing-doubling --n 2 --k 3 --exhaustive",
    "verify --protocol broken-const --n 4 --samples 3",
    "bench --protocol mpjk-sublinear --n 3,4 --k 4 --d 2 --samples 25 --seed 7",
    "bench --protocol bucketing --n 4,8 --k 3 --samples 20 --seed 3 --format json",
    "emit-plot-data --protocol index --n 4,8 --samples 10 --seed 1",
    "cover --f 2,2,4,4 --d 2",
    "cover --f 1,1,1,2 --d 2",
    "cover --f 1,1,2 --d 1 --s 1,2,3",
    "cover --f 3,3,3,1,1 --d 2 --s 1,4,5",
    "attack --protocol hash4 --n 16 --k 4 --seed 1",
    "attack --protocol truncate4 --n 8",
    "attack --protocol parity3 --n 10 --k 4 --seed 3",
    "attack --protocol constant --n 8 --k 5",
    "run --protocol mpj3-sublinear --n 4 --k 4",
    "attack --protocol index --n 8",
    "attack --protocol hash4 --n 32 --k 4 --seed 1",
    "attack --protocol truncate24 --n 32 --k 4",
    "attack --protocol broken-const --n 8",
    "verify --protocol broken-const --n 2 --k 5 --exhaustive",
    "bench --protocol broken-const --n 2,4 --k 2 --samples 5",
    "cover --f 2,2,1 --d 2 --s 1,1",
    "cover --f 2,2,1 --d 2 --s ''",
)


def replay(command: str) -> str:
    """One block of the golden file for `command`."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(shlex.split(command))
    block = f"=== {command}\n--- exit {code}\n{out.getvalue()}"
    if err.getvalue():
        block += f"--- stderr\n{err.getvalue()}"
    return block


def recorded() -> dict[str, str]:
    blocks = re.split(r"^(?==== )", GOLDEN.read_text(encoding="utf-8"), flags=re.M)
    return {b[4 : b.index("\n")]: b for b in blocks if b}


def test_golden_file_lists_every_command():
    assert list(recorded()) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_bytes_match_the_recording(command, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert replay(command) == recorded()[command]


@pytest.mark.parametrize(
    "command", [c for c in COMMANDS if "--seed" in c or c.startswith("cover ")]
)
def test_a_garbage_env_seed_is_not_read(command, monkeypatch):
    """A command given --seed, and cover, which takes none, never read MPJLAB_SEED."""
    monkeypatch.setenv(SEED_ENV_VAR, "ten")
    assert replay(command) == recorded()[command]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(replay(c) for c in COMMANDS), encoding="utf-8")
