"""Seeded mutation analysis: which tier-1 test files catch which faults.

    python tools/mutate.py

The harness finds every mutation site in `src/mpjlab` (all modules but
`__init__` and `__main__`) by walking each module's `ast`, with five
operators:

- `compare`: swap `<`/`<=`, `>`/`>=`, `==`/`!=`, `is`/`is not` or
  `in`/`not in` (a comparison's site is its right operand);
- `int+1` and `int-1`: add or subtract 1 from an int constant (never a
  bool, and a docstring is a str, so it has no site);
- `and-or`: swap `and` and `or`;
- `if-not`: negate an `if` test;
- `raise-pass`: replace a `raise` with `pass`.

A site's id is `file:line:col:operator`, read from the original parse.
It draws `SAMPLE` sites with `random.Random(SEED)` from the sorted ids and
runs each mutant in a temporary copy of the checkout, outside the
checkout, where only the mutated module is rewritten (by `ast.unparse`).

A control comes first: every module goes through `ast.unparse` with
nothing mutated, and every `tests/test_*.py` must pass, or the harness
exits 1. The files then run fastest first, by the control's run time,
each in its own pytest process with a fixed Hypothesis seed. A mutant
stops at the first file that fails, or that runs past `TIMEOUT_S`
(counted as a kill and marked as a timeout), and that file's failing
and erroring test ids are recorded. So the slowest file runs only on the mutants that
every other file let live.

The outcome goes to `MUTATION.json`: deterministic JSON with sorted keys.
There are no options; a different seed or sample size is an edit here.
"""

import ast
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpjlab"
OUT = ROOT / "MUTATION.json"
SEED = 2008
SAMPLE = 50
TIMEOUT_S = 120
SKIPPED_MODULES = {"__init__.py", "__main__.py"}

SWAPPED = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def modules() -> list[Path]:
    """The mutated modules, in name order."""
    return sorted(p for p in SRC.glob("*.py") if p.name not in SKIPPED_MODULES)


def _sites(name: str, tree: ast.Module):
    """(id, parent, node, operator, index) for every mutation site in `tree`.

    `index` picks the operator of a chained comparison."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            found = []
            if isinstance(node, ast.Compare):
                found = [(right, "compare", i) for i, right in enumerate(node.comparators)]
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                found = [(node, "int+1", 0), (node, "int-1", 0)]
            elif isinstance(node, ast.BoolOp):
                found = [(node, "and-or", 0)]
            elif isinstance(node, ast.If):
                found = [(node.test, "if-not", 0)]
            elif isinstance(node, ast.Raise):
                found = [(node, "raise-pass", 0)]
            for at, operator, index in found:
                site = f"{name}:{at.lineno}:{at.col_offset}:{operator}"
                yield site, parent, node, operator, index


def sites() -> list[str]:
    """Every site id in `src/mpjlab`, sorted."""
    return sorted(
        site for path in modules()
        for site, *_ in _sites(path.name, ast.parse(path.read_text(encoding="utf-8")))
    )


def sample(ids, seed: int = SEED, size: int = SAMPLE) -> list[str]:
    """The sampled site ids: a function of the set of ids and the seed only."""
    return random.Random(seed).sample(sorted(ids), size)


def mutant(name: str, source: str, site: str) -> tuple[str, str]:
    """(the module's text with `site` mutated, a one-line diff)."""
    tree = ast.parse(source)
    for found, parent, node, operator, index in _sites(name, tree):
        if found == site:
            break
    else:
        raise KeyError(site)
    # an int shows with the one-line node around it, an if statement by its test
    around = (ast.expr, ast.keyword, ast.arguments)
    shown = parent if operator.startswith("int") and isinstance(parent, around) else node
    before = ast.unparse(node.test if operator == "if-not" else shown)
    if operator == "compare":
        node.ops[index] = SWAPPED[type(node.ops[index])]()
    elif operator in ("int+1", "int-1"):
        node.value += 1 if operator == "int+1" else -1
    elif operator == "and-or":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif operator == "if-not":
        node.test = shown = ast.UnaryOp(ast.Not(), node.test)
    else:  # nodes compare by identity, so `in` finds this raise in its block
        block = next(v for _, v in ast.iter_fields(parent) if isinstance(v, list) and node in v)
        block[block.index(node)] = shown = ast.Pass()
    return ast.unparse(tree) + "\n", f"{before} -> {ast.unparse(shown)}"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _copy(into: Path) -> Path:
    """The checkout without its history, caches and benchmark output."""
    def ignored(directory, names):
        skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
        if Path(directory) == ROOT / "perfbench":
            skip.add("out")
        return {n for n in names if n in skip or n.endswith(".egg-info")}

    copy = into / "checkout"
    shutil.copytree(ROOT, copy, ignore=ignored)
    return copy


def _pytest(copy: Path, test_file: str) -> tuple[str, list[str], float]:
    """("passed" | "failed" | "timeout", failing test ids, seconds)."""
    env = {"PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", "-rfE", test_file]
    began = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # with any process a test started
        proc.communicate()
        return "timeout", [], time.perf_counter() - began
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    seconds = time.perf_counter() - began
    if proc.returncode == 0:
        return "passed", [], seconds
    failing = sorted({
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))
    })
    return "failed", failing or [f"pytest exit {proc.returncode}"], seconds


def main() -> int:
    originals = {p.name: p.read_text(encoding="utf-8") for p in modules()}
    every_site = sites()
    chosen = sample(every_site)
    with tempfile.TemporaryDirectory(prefix="mpjlab-mutate-") as scratch:
        copy = _copy(Path(scratch))
        package = copy / "src" / "mpjlab"
        test_files = sorted(f"tests/{p.name}" for p in (copy / "tests").glob("test_*.py"))

        for name, source in originals.items():
            (package / name).write_text(ast.unparse(ast.parse(source)) + "\n", encoding="utf-8")
        seconds = {}
        for test_file in test_files:
            status, failing, seconds[test_file] = _pytest(copy, test_file)
            print(f"control {test_file}: {status} in {seconds[test_file]:.1f} s", flush=True)
            if status != "passed":
                print(f"control failed: {failing}", file=sys.stderr)
                return 1
        for name, source in originals.items():
            (package / name).write_text(source, encoding="utf-8")
        order = sorted(test_files, key=seconds.__getitem__)

        mutants = []
        for count, site in enumerate(chosen, 1):
            name = site.split(":", 1)[0]
            text, diff = mutant(name, originals[name], site)
            (package / name).write_text(text, encoding="utf-8")
            killer, began = "survived", time.perf_counter()
            for test_file in order:
                status, failing, _ = _pytest(copy, test_file)
                if status != "passed":
                    killer = {"file": test_file, "tests": failing, "timeout": status == "timeout"}
                    break
            (package / name).write_text(originals[name], encoding="utf-8")
            mutants.append({"id": site, "diff": diff, "killer": killer})
            verdict = killer if killer == "survived" else f"killed by {killer['file']}"
            print(f"[{count}/{len(chosen)}] {site}: {verdict} "
                  f"({time.perf_counter() - began:.0f} s)", flush=True)

    killed = sum(m["killer"] != "survived" for m in mutants)
    report = {
        "python": platform.python_version(),
        "src_sha256": _src_digest(),
        "seed": SEED,
        "sample": SAMPLE,
        "sites": len(every_site),
        "file_order": order,
        "mutants": mutants,
        "score": {"killed": killed, "survived": len(mutants) - killed,
                  "killed_share": round(killed / len(mutants), 4)},
    }
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{killed}/{len(mutants)} killed; wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
