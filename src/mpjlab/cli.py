"""Command-line front end: run, verify, bench, cover, attack, emit-plot-data.

Exit codes: 0 on success, 1 when verification found failures (or an attack
did not fool its target or found no crossed cell, or a player raised or broke
the protocol contract), 2 on usage/configuration errors. Output is a pure
function of the arguments plus the seed. A command that takes --seed and is
given none reads it from the MPJLAB_SEED environment variable (0 when
unset); no other call reads the variable. A seed is at least 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from contextlib import nullcontext
from typing import Iterable, Sequence

from .adversary import BoundRefusedError, CrossingSearchError, build_fooling_inputs, verify_fooling
from .core import (
    BudgetExceededError,
    Instance,
    LayerFunction,
    enumerate_instances,
    eval_instance,
    instance_from_dict,
    instance_to_dict,
    sample_instances,
)
from .registry import (
    MAX_WIDTH,
    BuiltProtocol,
    UnknownProtocolError,
    _at_most,
    _cover_d,
    build_protocol,
)
from .sim import ProtocolContractError, ProtocolInvariantError, VerifyReport, run, verify

SEED_ENV_VAR = "MPJLAB_SEED"


def _seed(text: str) -> int:
    """A seed is an integer of at least 0: `random.Random` seeds with
    |seed|, so -s would repeat the instances of seed s."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")
    return value


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return _seed(raw)
    except argparse.ArgumentTypeError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer of at least 0, got {raw!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_int_list(text: str) -> list[int]:
    values = _int_list(text)
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return values


def _emit(payload: str | dict | list, output: str | None) -> None:
    """Write text as it is, or stream a dict or list as indented JSON, onto
    stdout or into the file `output`. Text brings its closing newline; JSON
    gets one on stdout and none in a file. JSON is written 4,096 encoder
    chunks at a time, never as one text: the encoder yields a few chunks per
    value, and a write for each would slow a large `cover`."""
    to_file = output is not None
    with open(output, "w", encoding="utf-8") if to_file else nullcontext(sys.stdout) as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
            while batch := list(itertools.islice(chunks, 4096)):
                fh.write("".join(batch))
            if not to_file:
                fh.write("\n")


def _build(args: argparse.Namespace, n: int) -> BuiltProtocol:
    return build_protocol(args.protocol, n=n, k=args.k, d=args.d, seed=args.seed)


def _instances(args: argparse.Namespace, n: int, built: BuiltProtocol) -> Iterable[Instance]:
    """The one source of a command's instances at width n: `run --instance`'s
    file, checked for width and for the protocol's permutation mask; every
    instance under --exhaustive; else --samples seeded ones (one for `run`).
    A file's k or variant that differs is left to `run`, which names it."""
    if getattr(args, "instance", None) is not None:
        with open(args.instance, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError("instance JSON is nested too deeply") from None
        inst = instance_from_dict(doc)
        if inst.n != n:
            raise ValueError(f"instance width {inst.n} does not match --n {n}")
        mask = built.perm_mask
        if mask is not None and inst.variant is built.variant and inst.k == built.handle.k:
            for j, (f, need_perm) in enumerate(zip(inst.layers, mask), start=2):
                if need_perm and not f.is_permutation:
                    raise ValueError(
                        f"instance layer f_{j} is not a permutation; "
                        f"{built.handle.name} takes permutation layers only"
                    )
        return (inst,)
    space = (n, built.handle.k, built.variant, built.perm_mask)
    if getattr(args, "exhaustive", False):  # only verify takes --exhaustive
        return enumerate_instances(*space, budget=args.budget)
    return sample_instances(*space, count=getattr(args, "samples", 1), seed=args.seed)


def _check(
    args: argparse.Namespace, n: int, built: BuiltProtocol
) -> tuple[VerifyReport, float | None, bool | None]:
    """Verify `built` at width n against brute force on `_instances`, and
    hold its worst prefix cost to the cost bound: (report, bound, bound_ok),
    bound_ok None when the protocol has no bound."""
    report = verify(built.handle, _instances(args, n, built))
    bound = built.bound
    return report, bound, None if bound is None else report.worst_prefix_cost <= bound


def cmd_run(args: argparse.Namespace) -> int:
    built = _build(args, args.n)
    if args.emit_buckets and built.bucket_plan is None:
        raise ValueError("--emit-buckets only applies to the bucketing protocols")
    (inst,) = _instances(args, args.n, built)
    transcript = run(built.handle, inst)
    expected = eval_instance(inst)
    payload = {
        "protocol": built.handle.name,
        "instance": instance_to_dict(inst),
        "messages": [m.to01() for m in transcript.messages],
        "per_player_bits": list(transcript.per_player_bits),
        "total_cost": transcript.total_cost,
        "prefix_cost": transcript.prefix_cost,
        "output": transcript.output,
        "expected": expected,
        "correct": transcript.output == expected,
    }
    if args.emit_buckets:
        from .bucketing import bucket_report

        payload["buckets"] = bucket_report(built.bucket_plan, transcript.messages)
    _emit(payload, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    built = _build(args, args.n)
    report, bound, bound_ok = _check(args, args.n, built)
    payload = {
        "protocol": built.handle.name,
        "n": args.n,
        "k": built.handle.k,
        "checked": report.checked,
        "failures": report.failed,
        "worst_cost": report.worst_cost,
        "worst_prefix_cost": report.worst_prefix_cost,
        "per_player_max_bits": list(report.per_player_max_bits),
        "bound": bound,
        "bound_ok": bound_ok,
    }
    if report.failures:
        first = report.failures[0]
        payload["first_failure"] = {
            "instance": instance_to_dict(first.inst),
            "expected": first.expected,
            "got": first.got,
            "error": first.error,
        }
    if args.format == "json":
        _emit(payload, args.output)
    else:
        lines = [
            f"protocol {built.handle.name}: checked {report.checked} instances, "
            f"{report.failed} failures",
            f"worst cost {report.worst_cost} bits total, {report.worst_prefix_cost} "
            f"before the output message",
            f"per-player max bits: {list(report.per_player_max_bits)}",
        ]
        if bound is not None:
            verdict = "within" if bound_ok else "OVER"
            shown = int(bound) if float(bound).is_integer() else bound
            lines.append(f"cost bound {shown}: {verdict}")
        if report.failures:  # `first` is set above, with the payload's first_failure
            got = "no output" if first.got is None else f"got {first.got}"
            error = "" if first.error is None else f" ({first.error})"
            seed = "" if built.seed is None else f" --seed {built.seed}"
            lines.append(
                f"first failure: expected {first.expected}, {got}{error}; "
                f"instance JSON for run --instance{seed}:"
            )
            lines.append(json.dumps(payload["first_failure"]["instance"], sort_keys=True))
        _emit("\n".join(lines) + "\n", args.output)
    return 1 if report.failures else 0


def _result_rows(args: argparse.Namespace) -> tuple[list[dict], int]:
    """One verified row per width; every width is built, and so checked,
    before any is verified."""
    builds = [_build(args, n) for n in args.n]
    rows = []
    for n, built in zip(args.n, builds):
        report, bound, bound_ok = _check(args, n, built)
        rows.append(
            {
                "n": n,
                "k": built.handle.k,
                "protocol": built.handle.name,
                "view": built.handle.view_kind.value,
                "max_cost": report.worst_cost,
                "per_player": list(report.per_player_max_bits),
                "checked": report.checked,
                "failures": report.failed,
                "bound": bound,
                "bound_ok": bound_ok,
            }
        )
    return rows, builds[0].handle.k


def _csv_lines(rows: list[dict], k: int) -> list[list]:
    """bench's CSV: header, then one line per width."""
    lines = [
        ["n", "k", "protocol", "view", "max_cost"]
        + [f"p{j}_bits" for j in range(1, k + 1)]
        + ["checked", "failures", "bound", "bound_ok"]
    ]
    for row in rows:
        lines.append(
            [row["n"], row["k"], row["protocol"], row["view"], row["max_cost"]]
            + row["per_player"]
            + [row["checked"], row["failures"], row["bound"], row["bound_ok"]]
        )
    return lines


def _to_csv(lines: Iterable[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue()


def _rows_exit_code(rows: list[dict]) -> int:
    return 1 if any(row["failures"] for row in rows) else 0


def cmd_bench(args: argparse.Namespace) -> int:
    rows, k = _result_rows(args)
    if args.format == "json":
        _emit(rows, args.output)
    else:
        _emit(_to_csv(_csv_lines(rows, k)), args.output)
    return _rows_exit_code(rows)


def cmd_emit_plot_data(args: argparse.Namespace) -> int:
    """The fixed plot schema: bench's CSV up to the per-player bit columns.

    The schema has no failures column, so the exit code (1) is the only sign
    that some width answered wrongly.
    """
    rows, k = _result_rows(args)
    _emit(_to_csv(line[: 5 + k] for line in _csv_lines(rows, k)), args.output)
    return _rows_exit_code(rows)


def cmd_cover(args: argparse.Namespace) -> int:
    n = _at_most("width", "n", len(args.f), MAX_WIDTH)
    f = LayerFunction(n, tuple(args.f))
    _cover_d(args.d, n)
    from .covers import build_d_cover, build_sd_cover, verify_d_cover, verify_sd_cover

    if args.s is None:
        cover = build_d_cover(f, args.d)
        ok, witness = verify_d_cover(cover, f, args.d)
    else:
        cover = build_sd_cover(f, args.s, args.d)
        ok, witness = verify_sd_cover(cover, f, args.s, args.d)
    payload = {
        "n": n,
        "f": f.values,
        "d": args.d,
        "scope": sorted(cover.scope) if cover.scope is not None else None,
        "perms": [pi.values for pi in cover.perms],
        "verified": ok,
        "first_uncovered": witness,
    }
    _emit(payload, args.output)
    return 0 if ok else 1


def cmd_attack(args: argparse.Namespace) -> int:
    built = _build(args, args.n)
    pair = build_fooling_inputs(built.handle)
    report = verify_fooling(built.handle, pair.inst0, pair.inst1)
    payload = {
        "protocol": built.handle.name,
        "n": args.n,
        "k": built.handle.k,
        "inst0": instance_to_dict(pair.inst0),
        "inst1": instance_to_dict(pair.inst1),
        "prefix_messages": [m.to01() for m in pair.prefix_messages],
        "report": {
            "prefix_equal": report.prefix_equal,
            "outputs": list(report.outputs),
            "expected": list(report.expected),
            "errors": report.errors,
            "degenerate": report.degenerate,
            "fooled": report.fooled,
        },
    }
    _emit(payload, args.output)
    return 0 if report.fooled else 1


def _add_protocol_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol", required=True, help="registry name, e.g. index, bucketing")
    p.add_argument("--k", type=int, default=None, help="player count (protocol default if omitted)")
    p.add_argument("--d", type=int, default=None, help="cover parameter for the sublinear protocols")
    p.add_argument("--seed", type=_seed, default=None,
                   help=f"RNG seed, at least 0 (default from ${SEED_ENV_VAR}, else 0)")
    p.add_argument("--output", default=None, help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpjlab",
        description="Simulate and verify one-way pointer-jumping protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one protocol on one instance")
    _add_protocol_args(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--instance", default=None, help="instance JSON file (sampled if omitted)")
    p.add_argument("--emit-buckets", action="store_true",
                   help="include bucket announcements (bucketing protocols only)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="check a protocol against brute force")
    _add_protocol_args(p)
    p.add_argument("--n", type=_positive_int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--budget", type=_positive_int, default=2_000_000,
                   help="refuse exhaustive sweeps larger than this")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="measure worst-case costs across widths")
    _add_protocol_args(p)
    p.add_argument("--n", type=_positive_int_list, required=True, help="comma-separated widths")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("cover", help="build and verify a permutation cover")
    p.add_argument("--f", type=_int_list, required=True, help="layer values, f(1) first")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=_int_list, default=None, help="scope points (plain cover if omitted)")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("attack", help="build a fooling pair against a collapsing protocol")
    _add_protocol_args(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("emit-plot-data", help="fixed-schema cost CSV across widths")
    _add_protocol_args(p)
    p.add_argument("--n", type=_positive_int_list, required=True, help="comma-separated widths")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.set_defaults(fn=cmd_emit_plot_data)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        if getattr(args, "seed", 0) is None:  # cover takes no seed
            args.seed = _default_seed()
        return args.fn(args)
    except (BudgetExceededError, BoundRefusedError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (UnknownProtocolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolContractError, ProtocolInvariantError, CrossingSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
