"""Command-line behavior: exit codes, output formats, determinism, refusals."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mpjlab
from mpjlab.adversary import CrossingSearchError
from mpjlab.cli import SEED_ENV_VAR, main
from mpjlab.core import Instance, LayerFunction, Variant, instance_from_dict, sample_instances
from mpjlab import registry
from mpjlab.covers import build_d_cover
from mpjlab.families import constant_protocol, truncating_protocol
from mpjlab.jump import index_protocol, mpjk_sublinear, naive_perm_protocol
from mpjlab.registry import (
    BASE_NAMES,
    MAX_PLAYERS,
    MAX_WIDTH,
    BuiltProtocol,
    UnknownProtocolError,
    build_protocol,
    cost_bound,
)
from mpjlab.sim import Message, ProtocolHandle, ProtocolInvariantError, ViewKind, verify

README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    for line in block.splitlines()
    if line.startswith("mpjlab ")
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_sampled_instance_round(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--protocol", "index", "--n", "6", "--seed", "5"
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["protocol"] == "index"
        assert payload["correct"] is True
        assert payload["instance"]["n"] == 6
        assert payload["total_cost"] == payload["prefix_cost"] + 1

    def test_output_is_byte_identical(self, capsys):
        args = ("run", "--protocol", "mpj3-sublinear", "--n", "5", "--d", "2", "--seed", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_instance_file(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            json.dumps({"n": 4, "k": 2, "variant": "mpj", "i": 2, "layers": [], "x": "0101"})
        )
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "index", "--n", "4", "--instance", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["messages"] == ["0101", "1"]
        assert payload["output"] == 1 and payload["expected"] == 1

    def test_instance_width_mismatch(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            json.dumps({"n": 4, "k": 2, "variant": "mpj", "i": 2, "layers": [], "x": "0101"})
        )
        code, _, err = run_cli(
            capsys, "run", "--protocol", "index", "--n", "5", "--instance", str(path)
        )
        assert code == 2 and "does not match" in err

    @pytest.mark.parametrize("protocol", ["bucketing", "bucketing-doubling"])
    def test_instance_outside_the_permutation_mask(self, capsys, tmp_path, protocol):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 4, "k": 3, "variant": "mpjhat", "i": 1, "layers": [[3, 3, 2, 1], [1, 2, 3, 4]]}
        ))
        code, out, err = run_cli(
            capsys, "run", "--protocol", protocol, "--n", "4", "--k", "3", "--instance", str(path)
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: instance layer f_2 is not a permutation; {protocol} takes permutation "
            f"layers only\n"
        )

    def test_bucket_debug_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "bucketing", "--n", "8", "--k", "4",
            "--seed", "1", "--emit-buckets",
        )
        assert code == 0
        payload = json.loads(out)
        buckets = payload["buckets"]
        assert buckets["widths"] == [1, 2, 3]
        assert buckets["terminal"] == 3
        assert set(buckets["survivors"]) == {"2", "3"}

    def test_bucket_debug_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--protocol", "index", "--n", "4", "--emit-buckets"
        )
        assert code == 2 and "--emit-buckets" in err

    def test_bucket_debug_rejected_before_running(self, capsys, monkeypatch):
        # the refusal needs only the built protocol: no instance is sampled
        # and nothing runs before it
        def ran(*args, **kwargs):
            raise AssertionError("sampled or ran before refusing --emit-buckets")

        monkeypatch.setattr("mpjlab.cli.sample_instance", ran)
        monkeypatch.setattr("mpjlab.cli.run", ran)
        code, out, err = run_cli(
            capsys, "run", "--protocol", "constant", "--n", "4", "--k", "3", "--emit-buckets"
        )
        assert (code, out) == (2, "")
        assert err == "error: --emit-buckets only applies to the bucketing protocols\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "index", "--n", "4", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["protocol"] == "index"


class TestMalformedInstanceFiles:
    GOOD = {"n": 3, "k": 2, "variant": "mpj", "i": 1, "layers": [], "x": "010"}

    @pytest.mark.parametrize(
        "doc",
        [
            [GOOD],
            dict(GOOD, n="3", k=3, layers=[[1, 2, 3]]),
            dict(GOOD, layers=5),
            dict(GOOD, x=11),
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["top-level-list", "string-width", "scalar-layers", "integer-bits", "deep-nesting"],
    )
    def test_exits_two_with_one_line_error(self, capsys, tmp_path, doc):
        path = tmp_path / "inst.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(
            capsys, "run", "--protocol", "index", "--n", "3", "--instance", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_well_formed_control(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self.GOOD))
        code, _, _ = run_cli(
            capsys, "run", "--protocol", "index", "--n", "3", "--instance", str(path)
        )
        assert code == 0


class TestPositiveSizes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--protocol", "index", "--n", "8", "--samples", "0"),
            ("verify", "--protocol", "index", "--n", "0", "--samples", "5"),
            ("verify", "--protocol", "index", "--n", "4", "--exhaustive", "--budget", "-1"),
            ("run", "--protocol", "index", "--n", "-3"),
            ("attack", "--protocol", "truncate1", "--n", "0"),
            ("bench", "--protocol", "index", "--n", "4,0", "--samples", "5"),
            ("bench", "--protocol", "index", "--n", ",", "--samples", "5"),
            ("bench", "--protocol", "index", "--n", "4", "--samples", "-5"),
            ("emit-plot-data", "--protocol", "index", "--n=-2,4", "--samples", "5"),
        ],
    )
    def test_non_positive_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "positive integer" in err


JSON_ATOMS = st.none() | st.booleans() | st.integers(-2, 5) | st.text("01mpjhat", max_size=6)
JSON_VALUES = st.recursive(
    JSON_ATOMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("nkix", max_size=2), inner, max_size=3),
    max_leaves=12,
)
INSTANCE_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "n": st.integers(1, 4) | JSON_VALUES,
        "k": st.integers(2, 4) | JSON_VALUES,
        "variant": st.sampled_from(["mpj", "mpjhat"]) | JSON_VALUES,
        "i": st.integers(1, 4) | JSON_VALUES,
        "layers": st.lists(st.lists(st.integers(0, 4), max_size=4), max_size=3) | JSON_VALUES,
        "x": st.text("01", max_size=5) | JSON_VALUES,
        "perm_mask": st.lists(st.booleans(), max_size=3) | JSON_VALUES,
    },
)
# valid values come first and most often, so fuzzed runs also reach the commands
SIZES = st.sampled_from(["4", "2", "3", "8", "4", "-1", "0", "x", "", "2.5"])
SMALL = st.sampled_from(["2", "3", "4", "1", "-1", "0", "x"])
WIDTH_LISTS = st.sampled_from(["2,4", "4", "3", "0,2", "4,,8", ",", "x", "-2"])
PROTOCOLS = st.sampled_from([
    "index", "mpj3-sublinear", "mpjk-sublinear", "bucketing", "bucketing-doubling",
    "broken-const", "constant", "truncate2", "hash1", "parity9", "hash300", "mystery",
])


@st.composite
def malformed_argv(draw, instance_path):
    """Small argv lists, each an in-range or malformed use of one subcommand."""
    command = draw(st.sampled_from(["run", "verify", "bench", "emit-plot-data", "attack", "cover"]))
    argv = [command]
    if command == "cover":
        argv += ["--f", draw(st.sampled_from(["2,2,4,4", "1,2", "1,5", "0", "x", ""]))]
        argv += ["--d", draw(SMALL)]
        argv += draw(st.sampled_from([[], ["--s", "1,2"], ["--s", "9"], ["--s", "x"]]))
    else:
        argv += ["--protocol", draw(PROTOCOLS)]
        argv += draw(st.sampled_from([[], ["--k", "3"], ["--k", "4"], ["--k", "2"],
                                      ["--k", "1"], ["--k", "0"], ["--k", "x"]]))
        argv += draw(st.sampled_from([[], ["--d", "2"], ["--d", "1"], ["--d", "0"],
                                      ["--d", "-1"], ["--d", "x"]]))
        argv += draw(st.sampled_from([[], ["--seed", "3"], ["--seed", "-7"], ["--seed", "x"]]))
        sizes = WIDTH_LISTS if command in ("bench", "emit-plot-data") else SIZES
        argv += ["--n=" + draw(sizes)]
        if command in ("bench", "emit-plot-data"):
            argv += ["--samples=" + draw(SMALL)]
        if command == "verify":
            # exhaustive sweeps always carry a small budget so none runs long
            argv += draw(st.sampled_from([
                ["--samples", "3"], ["--exhaustive", "--budget", "1000"],
                ["--exhaustive", "--budget", "0"], ["--samples", "0"], ["--samples", "x"], [],
            ]))
            argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "yaml"]]))
        if command == "run":
            argv += draw(st.sampled_from([["--instance", instance_path], [], ["--emit-buckets"]]))
    return argv + draw(st.sampled_from([[], [], [], ["--bogus"], ["extra"]]))


class TestFuzzedInput:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cli_exit_codes(self, tmp_path, data):
        path = tmp_path / "inst.json"
        doc = data.draw(INSTANCE_DOCS.map(json.dumps) | st.text(max_size=12))
        path.write_text(doc)
        argv = data.draw(malformed_argv(str(path)))
        assert main(argv) in (0, 1, 2)

    @given(INSTANCE_DOCS)
    def test_instance_from_dict_raises_only_value_error(self, doc):
        try:
            inst = instance_from_dict(doc)
        except ValueError:
            return
        assert isinstance(inst, Instance)


class TestVerify:
    def test_exhaustive_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "index", "--n", "3", "--exhaustive"
        )
        assert code == 0
        assert "checked 24 instances, 0 failures" in out
        assert "cost bound 3: within" in out

    def test_exhaustive_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "index", "--n", "3", "--exhaustive",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 24 and payload["failures"] == 0
        assert payload["bound"] == 3.0 and payload["bound_ok"] is True
        assert payload["per_player_max_bits"] == [3, 1]
        assert "first_failure" not in payload

    def test_bucketing_meets_its_bound_off_powers_of_two(self, capsys):
        # at n = 100 the survivor caps ceil(100 / 2^b) are reached, so the
        # worst prefix is the bound itself
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "bucketing", "--n", "100", "--k", "4",
            "--samples", "50", "--seed", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_prefix_cost"] == 566 and payload["bound"] == 566.0
        assert payload["bound_ok"] is True

    def test_failures_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "broken-const", "--n", "4",
            "--samples", "50", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["failures"] > 0
        assert payload["first_failure"]["expected"] == 1
        assert payload["first_failure"]["got"] == 0
        assert payload["first_failure"]["error"] is None

    def test_text_first_failure_is_replayable_json(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "broken-const", "--n", "4", "--samples", "3",
        )
        assert code == 1
        *_, label, line = out.splitlines()
        assert label.startswith("first failure: expected 1, got 0;")
        inst = instance_from_dict(json.loads(line))
        assert line == json.dumps(json.loads(line), sort_keys=True)
        path = tmp_path / "first.json"
        path.write_text(line + "\n")
        code, out, _ = run_cli(
            capsys, "run", "--protocol", "broken-const", "--n", "4", "--instance", str(path)
        )
        assert code == 0
        replay = json.loads(out)
        assert instance_from_dict(replay["instance"]) == inst
        assert replay["correct"] is False and replay["expected"] == 1

    def test_sublinear_with_cover_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "mpj3-sublinear", "--n", "3", "--d", "2",
            "--exhaustive", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 648 and payload["failures"] == 0
        assert payload["bound"] == 13.5 and payload["bound_ok"] is True

    def test_budget_refusal(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--protocol", "index", "--n", "8", "--exhaustive",
            "--budget", "100",
        )
        assert code == 2 and "refused" in err

    def test_unknown_protocol(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--protocol", "mystery", "--n", "4", "--samples", "5"
        )
        assert code == 2 and "unknown protocol" in err

    def test_wrong_k_for_fixed_arity(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--protocol", "index", "--n", "4", "--k", "3",
            "--samples", "5",
        )
        assert code == 2 and "2-player" in err


class TestBench:
    def test_csv_schema_and_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--protocol", "bucketing", "--n", "4,8", "--k", "3",
            "--samples", "30", "--seed", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,protocol,view,max_cost,p1_bits,p2_bits,p3_bits,checked,failures,bound,bound_ok"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[2] == "bucketing"
            assert fields[-1] == "True" and fields[-3] == "0"

    def test_csv_is_deterministic(self, capsys):
        args = (
            "bench", "--protocol", "mpjk-sublinear", "--n", "3,4", "--k", "4",
            "--d", "2", "--samples", "25", "--seed", "7",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--protocol", "index", "--n", "4,8",
            "--samples", "20", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [4, 8]
        assert all(row["failures"] == 0 and row["bound_ok"] for row in rows)


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failures_exit_one(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "bench", "--protocol", "broken-const", "--n", "4,5", "--samples", "20",
            "--format", fmt,
        )
        assert code == 1
        if fmt == "csv":
            assert out.splitlines()[1] == "4,3,broken-const,full-one-way,1,0,0,1,20,9,,"
        else:
            assert [row["failures"] for row in json.loads(out)] == [9, 8]


class TestEmitPlotData:
    def test_fixed_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "emit-plot-data", "--protocol", "index", "--n", "2,4,8",
            "--samples", "15", "--seed", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,protocol,view,max_cost,p1_bits,p2_bits"
        assert len(lines) == 4
        for line, n in zip(lines[1:], (2, 4, 8)):
            fields = line.split(",")
            assert int(fields[0]) == n
            assert int(fields[4]) == n + 1  # index always sends n bits, then 1

    def test_failures_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "emit-plot-data", "--protocol", "broken-const", "--n", "4",
            "--samples", "20",
        )
        assert code == 1
        assert out == (
            "n,k,protocol,view,max_cost,p1_bits,p2_bits,p3_bits\n"
            "4,3,broken-const,full-one-way,1,0,0,1\n"
        )

    def test_deterministic(self, capsys):
        args = (
            "emit-plot-data", "--protocol", "bucketing", "--n", "4,8", "--k", "3",
            "--samples", "20", "--seed", "3",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestOneCheckPath:
    """`verify --samples S` and a one-width `bench` or `emit-plot-data` with
    the same seed and S check the same instances, so they report the same
    figures: the three commands share one build, verify and bound step."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--protocol", "mpjk-sublinear", "--n", "6", "--k", "4", "--d", "2"),
            ("--protocol", "bucketing", "--n", "8", "--k", "4"),
            ("--protocol", "truncate3", "--n", "6"),  # no cost bound
            ("--protocol", "broken-const", "--n", "4"),  # wrong answers
        ],
        ids=" ".join,
    )
    def test_verify_and_bench_agree(self, capsys, argv):
        common = (*argv, "--samples", "40", "--seed", "5")
        vcode, vout, _ = run_cli(capsys, "verify", *common, "--format", "json")
        bcode, bout, _ = run_cli(capsys, "bench", *common, "--format", "json")
        pcode, pout, _ = run_cli(capsys, "emit-plot-data", *common)
        v = json.loads(vout)
        [row] = json.loads(bout)
        assert vcode == bcode == pcode
        assert (
            row["checked"], row["failures"], row["max_cost"], row["per_player"],
            row["bound"], row["bound_ok"],
        ) == (
            v["checked"], v["failures"], v["worst_cost"], v["per_player_max_bits"],
            v["bound"], v["bound_ok"],
        )
        assert v["checked"] == 40
        _, line = csv.reader(io.StringIO(pout))
        assert line == [
            str(field) for field in
            (row["n"], row["k"], row["protocol"], row["view"], row["max_cost"], *row["per_player"])
        ]


COVER_IN_A_FRESH_INTERPRETER = """
import sys
from mpjlab.cli import main
points = ",".join(str(v) for v in range(1, 1025))
code = main(["cover", "--f", points, "--d", "1024", "--output", sys.argv[1]])
status = open("/proc/self/status").read().splitlines()
print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class TestCover:
    def test_plain_cover_payload(self, capsys):
        code, out, _ = run_cli(capsys, "cover", "--f", "2,2,4,4", "--d", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["perms"] == [[2, 1, 4, 3], [1, 2, 3, 4]]
        assert payload["verified"] is True
        assert payload["first_uncovered"] is None
        assert payload["scope"] is None

    def test_scoped_cover_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "cover", "--f", "1,1,2", "--d", "1", "--s", "1,2,3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["perms"] == [[1, 3, 2]]
        assert payload["scope"] == [1, 2, 3]

    def test_invalid_layer_values(self, capsys):
        code, _, err = run_cli(capsys, "cover", "--f", "1,5", "--d", "1")
        assert code == 2 and "error" in err

    def test_writes_its_json_in_batches(self, monkeypatch, tmp_path):
        # 256 members of 256 points are about 66,000 encoder chunks; they
        # reach stdout in a few dozen writes, and as the file's bytes
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = ["cover", "--f", ",".join(str(v) for v in range(1, 257)), "--d", "256"]
        target = tmp_path / "cover.json"
        assert main(argv) == 0 and main([*argv, "--output", str(target)]) == 0
        assert stdout.getvalue() == target.read_text(encoding="utf-8") + "\n"
        assert stdout.writes < 100

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_streams_its_json_in_bounded_memory(self, tmp_path):
        # 1,024 members of 1,024 points: the 11.5 MB of JSON are streamed, so
        # the whole interpreter stays under 64 MiB, where holding the text and
        # list copies of the members takes about 119 MiB; the pinned bytes end
        # without a newline, as every JSON file does. The child reports its
        # own peak, VmHWM: on Linux ru_maxrss carries the peak of the process
        # that started it across fork and exec, so it would report pytest's.
        target = tmp_path / "cover.json"
        env = {**os.environ, "PYTHONPATH": str(Path(mpjlab.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", COVER_IN_A_FRESH_INTERPRETER, str(target)],
            env=env, capture_output=True, text=True, check=True,
        )
        code, max_rss_kib = map(int, done.stdout.split())
        assert code == 0
        assert max_rss_kib < 64 * 1024
        data = target.read_bytes()
        assert len(data) == 11_470_887
        assert hashlib.sha256(data).hexdigest() == (
            "5d8785fb7e66238a6d657f0c4f679a95b2cd485818d81fa48cafa6f3a289317c"
        )


class TestCoverParameterRange:
    """The cover protocols and `cover` take 1 <= d <= n; a larger d is
    refused with one error line before any cover or protocol is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("cover", "--f", "1,1,2", "--d", "100000000"),
            ("cover", "--f", "1,1,2", "--d", "4", "--s", "1,2"),
            ("run", "--protocol", "mpjk-sublinear", "--n", "4", "--k", "4", "--d", "100000"),
            ("run", "--protocol", "mpj3-sublinear", "--n", "3", "--d", "4"),
            ("verify", "--protocol", "mpj3-sublinear", "--n", "3", "--d", "4", "--samples", "5"),
            ("bench", "--protocol", "mpjk-sublinear", "--n", "2,4", "--k", "4", "--d", "3",
             "--samples", "5"),
        ],
        ids=" ".join,
    )
    def test_d_over_n_is_refused_before_building(self, capsys, monkeypatch, argv):
        def built(*args, **kwargs):
            raise AssertionError("built a cover or protocol for d > n")

        for name in ("covers.build_d_cover", "covers.build_sd_cover",
                     "jump.mpj3_sublinear", "jump.mpjk_sublinear"):
            monkeypatch.setattr(f"mpjlab.{name}", built)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cover parameter d=") and err.count("\n") == 1
        assert "use 1 <= d <= n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cover", "--f", "1,1,2", "--d", "3"),
            ("cover", "--f", "1,1,2", "--d", "3", "--s", "1,2"),
            ("run", "--protocol", "mpjk-sublinear", "--n", "3", "--k", "4", "--d", "3"),
            ("verify", "--protocol", "mpj3-sublinear", "--n", "3", "--d", "3", "--samples", "20"),
        ],
        ids=" ".join,
    )
    def test_d_equal_to_n_is_accepted(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""

    def test_library_takes_any_d(self):
        f = LayerFunction(3, (1, 1, 2))
        assert len(build_d_cover(f, 5).perms) == 5
        proto = mpjk_sublinear(naive_perm_protocol(3), 5, 4)
        assert verify(proto, sample_instances(3, 4, Variant.MPJ, count=20, seed=1)).ok


@pytest.fixture
def nothing_built(monkeypatch):
    """Every registry builder, bound and plan, and every instance source, fails."""

    def built(*args, **kwargs):
        raise AssertionError("built a protocol, plan or instance past a size cap")

    for name, spec in registry.PROTOCOLS.items():
        monkeypatch.setitem(
            registry.PROTOCOLS, name,
            dataclasses.replace(spec, build=built),
        )
    for name in ("sample_instance", "sample_instances", "enumerate_instances",
                 "build_fooling_inputs"):
        monkeypatch.setattr(f"mpjlab.cli.{name}", built)


class TestPlayerCountRange:
    """Every registry protocol takes k <= MAX_PLAYERS; a larger k is refused
    with one error line before any protocol, plan or instance is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--protocol", "constant", "--n", "4", "--k", "100000000"),
            ("run", "--protocol", "truncate1", "--n", "4", "--k", str(MAX_PLAYERS + 1)),
            ("verify", "--protocol", "bucketing", "--n", "4", "--k", "100000000",
             "--samples", "1"),
            ("verify", "--protocol", "mpjk-sublinear", "--n", "4", "--k", "100000000",
             "--exhaustive"),
            ("bench", "--protocol", "mpjk-sublinear", "--n", "2,4", "--k",
             str(MAX_PLAYERS + 1), "--samples", "5"),
            ("emit-plot-data", "--protocol", "bucketing-doubling", "--n", "4", "--k",
             str(MAX_PLAYERS + 1), "--samples", "5"),
            ("attack", "--protocol", "hash2", "--n", "8", "--k", "100000000"),
        ],
        ids=" ".join,
    )
    def test_k_over_the_cap_is_refused_before_building(self, capsys, nothing_built, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: player count k=") and err.count("\n") == 1
        assert f"use k <= {MAX_PLAYERS}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--protocol", "constant", "--n", "4", "--k", str(MAX_PLAYERS)),
            ("verify", "--protocol", "bucketing", "--n", "4", "--k", str(MAX_PLAYERS),
             "--samples", "1"),
        ],
        ids=" ".join,
    )
    def test_k_at_the_cap_is_accepted(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""

    def test_library_takes_any_k(self):
        assert constant_protocol(4, MAX_PLAYERS + 1).k == MAX_PLAYERS + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--protocol", "constant", "--n", "8", "--k", "1"),
            ("attack", "--protocol", "truncate2", "--n", "8", "--k", "1"),
            ("verify", "--protocol", "broken-const", "--n", "8", "--k", "1", "--samples", "1"),
        ],
        ids=" ".join,
    )
    def test_fewer_than_two_players_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: protocols need at least 2 players\n"


class TestWidthRange:
    """Every registry protocol, and `cover --f`, takes n <= MAX_WIDTH; a wider
    n is refused with one error line before any protocol, plan, instance or
    cover is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--protocol", "constant", "--n", "100000000", "--samples", "1"),
            ("run", "--protocol", "index", "--n", "100000000"),
            ("verify", "--protocol", "mpjk-sublinear", "--n", str(MAX_WIDTH + 1),
             "--exhaustive"),
            ("bench", "--protocol", "bucketing", "--n", str(MAX_WIDTH + 1), "--samples", "5"),
            ("emit-plot-data", "--protocol", "index", "--n", "100000000", "--samples", "5"),
            ("attack", "--protocol", "hash2", "--n", "100000000"),
        ],
        ids=" ".join,
    )
    def test_n_over_the_cap_is_refused_before_building(self, capsys, nothing_built, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: width n=") and err.count("\n") == 1
        assert f"use n <= {MAX_WIDTH}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--protocol", "index", "--n", str(MAX_WIDTH)),
            ("verify", "--protocol", "bucketing", "--n", str(MAX_WIDTH), "--k", "4",
             "--samples", "1"),
        ],
        ids=" ".join,
    )
    def test_n_at_the_cap_is_accepted(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""

    def test_library_takes_any_n(self):
        assert constant_protocol(MAX_WIDTH + 2, 3).n == MAX_WIDTH + 2

    @pytest.mark.parametrize("extra", [(), ("--s", "1,2")], ids=["plain", "scoped"])
    def test_cover_over_the_cap_is_refused_before_building(self, capsys, monkeypatch, extra):
        def built(*args, **kwargs):
            raise AssertionError("built a layer or cover past the width cap")

        for name in ("cli.LayerFunction", "covers.build_d_cover", "covers.build_sd_cover"):
            monkeypatch.setattr(f"mpjlab.{name}", built)
        points = ",".join(["1"] * (MAX_WIDTH + 1))
        code, out, err = run_cli(capsys, "cover", "--f", points, "--d", "1", *extra)
        assert code == 2 and out == ""
        assert err == f"error: width n={MAX_WIDTH + 1} is over {MAX_WIDTH}; use n <= {MAX_WIDTH}\n"

    def test_cover_at_the_cap_is_accepted(self, capsys):
        points = ",".join(["1"] * MAX_WIDTH)
        code, out, err = run_cli(capsys, "cover", "--f", points, "--d", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["n"] == MAX_WIDTH


class TestWidthListRefusals:
    """`bench` and `emit-plot-data` build every width of `--n` before they
    verify any, so a bad later entry is refused with nothing verified."""

    @pytest.mark.parametrize("command", ["bench", "emit-plot-data"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--protocol", "index", "--n", f"4,{MAX_WIDTH + 1}", "--samples", "20000"),
             "error: width n="),
            (("--protocol", "mpjk-sublinear", "--n", "8,3", "--k", "4", "--d", "4",
              "--samples", "20000"),
             "error: cover parameter d="),
        ],
        ids=["wide-later-n", "d-over-later-n"],
    )
    def test_later_entry_is_refused_before_any_verify(
        self, capsys, monkeypatch, command, argv, message
    ):
        calls = []
        monkeypatch.setattr("mpjlab.cli.verify", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1
        assert calls == []


class TestAttack:
    def test_fooling_succeeds_on_weak_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--protocol", "truncate4", "--n", "8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["fooled"] is True
        assert payload["report"]["outputs"] != payload["report"]["expected"]
        assert payload["inst0"]["layers"] == payload["inst1"]["layers"]
        assert payload["inst0"]["x"] != payload["inst1"]["x"]

    def test_hash_target_with_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--protocol", "hash3", "--n", "8", "--k", "4", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out)["report"]["fooled"] is True

    def test_refuses_full_view_targets(self, capsys):
        code, _, err = run_cli(capsys, "attack", "--protocol", "index", "--n", "8")
        assert code == 2 and "refused" in err

    def test_refuses_pointer_targets(self, capsys):
        code, out, err = run_cli(
            capsys, "attack", "--protocol", "bucketing", "--n", "8", "--k", "4"
        )
        assert code == 2 and out == ""
        assert err == "refused: the attack targets Boolean protocols only\n"

    def test_wide_target_within_budget(self, capsys):
        code, out, err = run_cli(capsys, "attack", "--protocol", "truncate1", "--n", "18")
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["fooled"] is True

    def test_over_budget_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "attack", "--protocol", "truncate24", "--n", "32", "--k", "4"
        )
        assert code == 2 and out == ""
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert "201,326,589 message evaluations" in err and "13,166,010" in err

    def test_failed_search_prints_one_error_line(self, capsys, monkeypatch):
        def escaped(handle):
            raise CrossingSearchError("all 35 message classes are crossing-free")

        monkeypatch.setattr("mpjlab.cli.build_fooling_inputs", escaped)
        code, out, err = run_cli(capsys, "attack", "--protocol", "truncate4", "--n", "8")
        assert code == 1 and out == ""
        assert err == "error: all 35 message classes are crossing-free\n"


class TestSeedEnvironment:
    def test_env_var_sets_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        _, from_env, _ = run_cli(capsys, "run", "--protocol", "index", "--n", "6")
        monkeypatch.delenv(SEED_ENV_VAR)
        _, explicit, _ = run_cli(
            capsys, "run", "--protocol", "index", "--n", "6", "--seed", "9"
        )
        assert from_env == explicit

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        _, out, _ = run_cli(capsys, "run", "--protocol", "index", "--n", "6", "--seed", "4")
        monkeypatch.delenv(SEED_ENV_VAR)
        _, base, _ = run_cli(capsys, "run", "--protocol", "index", "--n", "6", "--seed", "4")
        assert out == base

    def test_garbage_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "ten")
        code, _, err = run_cli(capsys, "run", "--protocol", "index", "--n", "4")
        assert code == 2 and SEED_ENV_VAR in err

    # the variable is read only when a command takes --seed and is given none
    def test_explicit_seed_skips_a_garbage_env_seed(self, capsys, monkeypatch):
        argv = ("verify", "--protocol", "bucketing", "--n", "8", "--samples", "5", "--seed", "4")
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        base = run_cli(capsys, *argv)
        monkeypatch.setenv(SEED_ENV_VAR, "ten")
        assert run_cli(capsys, *argv) == base and base[0] == 0

    def test_cover_ignores_a_garbage_env_seed(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        base = run_cli(capsys, "cover", "--f", "2,2,4,4", "--d", "2")
        monkeypatch.setenv(SEED_ENV_VAR, "ten")
        assert run_cli(capsys, "cover", "--f", "2,2,4,4", "--d", "2") == base
        assert base[0] == 0

    @pytest.mark.parametrize("argv", [("--help",), ("run", "--help")], ids=" ".join)
    def test_help_ignores_a_garbage_env_seed(self, capsys, monkeypatch, argv):
        monkeypatch.setenv(SEED_ENV_VAR, "ten")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: mpjlab")

    # random.Random seeds with |seed|, so a negative seed would repeat the
    # instance of its absolute value; both sources refuse it up front
    def test_negative_seed_is_refused(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, err = run_cli(
            capsys, "run", "--protocol", "mpjk-sublinear", "--n", "8", "--k", "4",
            "--d", "2", "--seed", "-3",
        )
        errors = [line for line in err.splitlines() if "error:" in line]
        assert (code, out) == (2, "")
        assert len(errors) == 1 and "--seed" in errors[0] and "'-3'" in errors[0]

    def test_negative_env_seed_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-3")
        code, out, err = run_cli(
            capsys, "run", "--protocol", "mpjk-sublinear", "--n", "8", "--k", "4", "--d", "2"
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {SEED_ENV_VAR} must be an integer of at least 0, got '-3'"]

    def test_seed_zero_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "0")
        code, from_env, _ = run_cli(capsys, "run", "--protocol", "index", "--n", "4")
        monkeypatch.delenv(SEED_ENV_VAR)
        _, explicit, _ = run_cli(capsys, "run", "--protocol", "index", "--n", "4", "--seed", "0")
        assert code == 0 and from_env == explicit


class TestRegistry:
    def test_every_base_name_builds(self):
        for name, n, k in (
            ("index", 6, None),
            ("mpj3-sublinear", 6, None),
            ("mpjk-sublinear", 6, 4),
            ("bucketing", 8, 3),
            ("bucketing-doubling", 8, 4),
            ("broken-const", 6, 3),
            ("constant", 6, 3),
            ("truncate2", 8, 3),
            ("parity2", 8, 3),
            ("hash2", 8, 3),
        ):
            built = build_protocol(name, n=n, k=k)
            assert built.handle.name == name

    def test_unknown_name(self):
        # widths are canonical decimals: hash007 is not another name for hash7
        for name in ("nonsense", "hash007", "truncate<t>", "index2", "parity-1"):
            with pytest.raises(UnknownProtocolError):
                build_protocol(name, n=4)

    @staticmethod
    def readme_table_rows():
        text = README.read_text(encoding="utf-8")
        table = text.split("### Protocol names", 1)[1].split("\n\n")[1]
        return table.splitlines()[2:]

    def test_readme_table_lists_every_registry_name(self):
        rows = self.readme_table_rows()
        names = [n for row in rows for n in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert tuple(names) == BASE_NAMES

    def test_readme_table_shows_each_default_k(self):
        for row in self.readme_table_rows():
            _, names, players, *_ = row.split("|")
            default = re.search(r"default (\d+)", players) or re.fullmatch(r" (\d+) ", players)
            for name in re.findall(r"`([^`]+)`", names):
                assert int(default[1]) == registry.PROTOCOLS[name].default_k, name

    def test_cost_bounds(self):
        assert cost_bound("index", n=8, k=2, d=None) == 8.0
        assert cost_bound("mpj3-sublinear", n=8, k=3, d=2) == 36.0
        assert cost_bound("mpjk-sublinear", n=8, k=4, d=2) == 66.0
        assert cost_bound("bucketing", n=8, k=3, d=None) == 30.0
        # widths (2, 3, 7): 200 + (100 + 25 * 3) + (100 + ceil(100 / 8) * 7)
        assert cost_bound("bucketing", n=100, k=4, d=None) == 566.0
        assert cost_bound("truncate3", n=8, k=3, d=None) is None

    @pytest.mark.parametrize("base", BASE_NAMES)
    def test_cost_bound_is_the_built_bound(self, base):
        name = base.replace("<t>", "2")
        k = None if registry.PROTOCOLS[base].fixed_k else 4
        built = build_protocol(name, n=8, k=k, d=2)
        assert cost_bound(name, n=8, k=built.handle.k, d=2) == built.bound


def crashing_index(n: int) -> BuiltProtocol:
    """index, except that the answer player trips an invariant on start 1."""

    def answer(view):
        if view.start == 1:
            raise ProtocolInvariantError("no answer for start 1")
        return Message((view.messages[0].bits[view.start - 1],))

    handle = ProtocolHandle(
        "crashing", 2, Variant.MPJ, ViewKind.FULL_ONE_WAY,
        (lambda view: Message(view.final_bits.bits), answer), n=n,
    )
    return BuiltProtocol(handle)


class TestCrashingPlayers:
    @pytest.fixture(autouse=True)
    def crashing_registry(self, monkeypatch):
        monkeypatch.setattr("mpjlab.cli.build_protocol", lambda name, *, n, **kw: crashing_index(n))

    def test_verify_records_the_crash_and_carries_on(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "index", "--n", "3", "--exhaustive",
            "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["checked"] == 24 and payload["failures"] == 8
        first = payload["first_failure"]
        assert first["instance"]["i"] == 1 and first["got"] is None
        assert first["error"] == "ProtocolInvariantError: no answer for start 1"

    def test_verify_text_names_the_crash(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "index", "--n", "3", "--exhaustive",
        )
        assert code == 1
        *_, label, line = out.splitlines()
        assert label == (
            "first failure: expected 0, no output (ProtocolInvariantError: no answer "
            "for start 1); instance JSON for run --instance:"
        )
        assert instance_from_dict(json.loads(line)).i == 1

    def test_run_prints_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 3, "k": 2, "variant": "mpj", "i": 1, "layers": [], "x": "011"}
        ))
        code, out, err = run_cli(
            capsys, "run", "--protocol", "index", "--n", "3", "--instance", str(path)
        )
        assert code == 1 and out == ""
        assert err == "error: no answer for start 1\n"


def raising(handle: ProtocolHandle, j: int) -> BuiltProtocol:
    """`handle`, except that player j looks up a key that is not there."""
    players = list(handle.players)
    players[j - 1] = lambda view: {}["missing"]
    return BuiltProtocol(dataclasses.replace(handle, players=tuple(players)))


class TestRaisingPlayers:
    """A player that raises an arbitrary exception is a failed run: one
    error line from run and attack, a recorded failure from verify."""

    ERROR = "player 2 raised KeyError: 'missing'"

    def test_verify_records_the_error(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "mpjlab.cli.build_protocol", lambda name, *, n, **kw: raising(index_protocol(n), 2)
        )
        code, out, _ = run_cli(
            capsys, "verify", "--protocol", "index", "--n", "3", "--exhaustive",
            "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["checked"] == 24 and payload["failures"] == 24
        first = payload["first_failure"]
        assert first["got"] is None
        assert first["error"] == f"ProtocolContractError: {self.ERROR}"
        assert instance_from_dict(first["instance"]).n == 3

    def test_run_prints_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "mpjlab.cli.build_protocol", lambda name, *, n, **kw: raising(index_protocol(n), 2)
        )
        code, out, err = run_cli(capsys, "run", "--protocol", "index", "--n", "3")
        assert code == 1 and out == ""
        assert err == f"error: {self.ERROR}\n"

    def test_attack_prints_one_error_line(self, capsys, monkeypatch):
        # player 2 is first called by the cell search, outside any run
        monkeypatch.setattr(
            "mpjlab.cli.build_protocol",
            lambda name, *, n, **kw: raising(truncating_protocol(n, 3, 2), 2),
        )
        code, out, err = run_cli(capsys, "attack", "--protocol", "truncate2", "--n", "8")
        assert code == 1 and out == ""
        assert err == f"error: {self.ERROR}\n"


class TestReadmeExamples:
    def test_every_subcommand_has_an_example(self):
        assert {argv[0] for argv in README_COMMANDS} == {
            "run", "verify", "bench", "emit-plot-data", "cover", "attack"
        }

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_example_exits_zero(self, capsys, monkeypatch, argv):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
