"""The mutation harness `tools/mutate.py`: its sites, its sample, its control and its runs.

The harness runs the test suite once per mutant, so it is not run here;
these tests read its site walk and its sampling rule, check that every
module survives the `ast.unparse` round trip its control relies on, and
run its checkout copy and its per-file pytest run on small fixtures.
"""

import ast
import importlib.util
import random
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
spec = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)

FIXTURE = '''"""Doc 7."""
def f(a, b):
    if a < b and b is None:
        raise KeyError(1, True)
'''
UNPARSED = '"""Doc 7."""\n\ndef f(a, b):\n    if a < b and b is None:\n        raise KeyError(1, True)\n'

# site -> (diff, the fixture's line as unparsed, the line in the mutant)
EXPECTED = {
    "fix.py:3:7:if-not": (
        "a < b and b is None -> not (a < b and b is None)",
        "if a < b and b is None:", "if not (a < b and b is None):",
    ),
    "fix.py:3:7:and-or": (
        "a < b and b is None -> a < b or b is None",
        "if a < b and b is None:", "if a < b or b is None:",
    ),
    "fix.py:3:11:compare": ("a < b -> a <= b", "if a < b and", "if a <= b and"),
    "fix.py:3:22:compare": ("b is None -> b is not None", "b is None:", "b is not None:"),
    "fix.py:4:8:raise-pass": ("raise KeyError(1, True) -> pass", "raise KeyError(1, True)", "pass"),
    # the bool is no site
    "fix.py:4:23:int+1": ("KeyError(1, True) -> KeyError(2, True)", "(1, True)", "(2, True)"),
    "fix.py:4:23:int-1": ("KeyError(1, True) -> KeyError(0, True)", "(1, True)", "(0, True)"),
}


def test_operators_on_a_fixture():
    found = [site for site, *_ in mutate._sites("fix.py", ast.parse(FIXTURE))]
    assert sorted(found) == sorted(EXPECTED)
    assert ast.unparse(ast.parse(FIXTURE)) + "\n" == UNPARSED
    for site, (diff, line, mutated) in EXPECTED.items():
        assert mutate.mutant("fix.py", FIXTURE, site) == (UNPARSED.replace(line, mutated), diff)


def test_an_unknown_site_is_refused():
    with pytest.raises(KeyError):
        mutate.mutant("fix.py", FIXTURE, "fix.py:3:7:raise-pass")


def test_the_sample_is_a_function_of_the_sites_and_the_seed():
    ids = mutate.sites()
    assert len(set(ids)) == len(ids) > mutate.SAMPLE
    shuffled = list(ids)
    random.Random(1).shuffle(shuffled)
    chosen = mutate.sample(ids)
    assert chosen == mutate.sample(shuffled) == mutate.sample(set(ids))
    assert len(set(chosen)) == mutate.SAMPLE and set(chosen) <= set(ids)
    assert chosen == random.Random(mutate.SEED).sample(sorted(ids), mutate.SAMPLE)


def test_every_module_round_trips_through_unparse():
    names = [path.name for path in mutate.modules()]
    assert "__init__.py" not in names and "__main__.py" not in names and "sim.py" in names
    for path in mutate.modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        text = ast.unparse(tree)
        assert ast.dump(ast.parse(text)) == ast.dump(tree)
        compile(text, path.name, "exec")


def test_the_copy_leaves_out_history_caches_and_benchmark_output(tmp_path, monkeypatch):
    root = tmp_path / "root"
    kept = ["README.md", "src/mpjlab/sim.py", "tests/test_sim.py", "perfbench/run.py",
            "tools/out/kept.txt"]
    left_out = [".git/HEAD", "src/mpjlab/__pycache__/sim.pyc", ".pytest_cache/x",
                ".hypothesis/x", "src/mpjlab.egg-info/PKG-INFO", "perfbench/out/run.json"]
    for name in kept + left_out:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(name, encoding="utf-8")
    monkeypatch.setattr(mutate, "ROOT", root)
    copy = mutate._copy(tmp_path / "scratch")
    assert copy == tmp_path / "scratch" / "checkout"
    copied = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert copied == sorted(kept)
    assert all((copy / name).read_text(encoding="utf-8") == name for name in kept)


def run_file(tmp_path, body):
    (tmp_path / "test_x.py").write_text(body, encoding="utf-8")
    return mutate._pytest(tmp_path, "test_x.py")


def test_a_passing_file_names_no_test(tmp_path):
    status, failing, seconds = run_file(tmp_path, "def test_a():\n    pass\n")
    assert (status, failing) == ("passed", [])
    assert seconds > 0
    assert not (tmp_path / ".hypothesis").exists()


def test_a_failing_file_names_each_failing_test(tmp_path):
    body = (
        "import pytest\n"
        "def test_a():\n    pass\n"
        "def test_b():\n    assert 0, 'b - failed'\n"
        "@pytest.mark.parametrize('v', [1, 2])\n"
        "def test_c(v):\n    assert v == 1\n"
    )
    status, failing, _ = run_file(tmp_path, body)
    assert (status, failing) == ("failed", ["test_x.py::test_b", "test_x.py::test_c[2]"])


def test_a_file_that_cannot_be_collected_is_named(tmp_path):
    status, failing, _ = run_file(tmp_path, "import no_such_module_here\n")
    assert (status, failing) == ("failed", ["test_x.py"])


def test_a_file_past_the_time_limit_is_stopped_with_what_it_started(tmp_path, monkeypatch):
    # the test starts a child of its own; the timeout kills the whole group
    monkeypatch.setattr(mutate, "TIMEOUT_S", 3)
    pid_file = tmp_path / "child.pid"
    body = (
        "import pathlib, subprocess, sys, time\n"
        "def test_hangs():\n"
        "    child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"    pathlib.Path({str(pid_file)!r}).write_text(str(child.pid))\n"
        "    time.sleep(60)\n"
    )
    status, failing, seconds = run_file(tmp_path, body)
    assert (status, failing) == ("timeout", [])
    assert 3 <= seconds < 30
    stat = Path(f"/proc/{pid_file.read_text()}/stat")
    for _ in range(50):  # a killed child may wait a moment to be reaped
        if not stat.exists() or stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
            break
        time.sleep(0.1)
    else:
        raise AssertionError("the test's own child outlived the timeout")
