"""One pass of one workload, timed from a cold start.

A pass imports mpjlab, builds the workload's protocols, generates its
inputs from the seed, and then runs and checks every operation once: a
protocol run (`sim.run`, then `core.eval_instance` and a comparison) on
the sweep workloads, a fooling-pair attack (`build_fooling_inputs`, then
`verify_fooling`) on `attack`. The cover memo in `mpjlab.covers` lives for
the whole process, so every timed pass gets a fresh interpreter:

    python3 perfbench/worker.py '{"workload": "attack", "seed": 1, "traced": false}'

prints one JSON object with the pass's measurements. `run.py` starts
these processes; tests call `run_pass` directly.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, PLAYER_SPANS, Workload, player_roles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MAX_FAILURE_FILES = 10


def import_package() -> None:
    """Import mpjlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "mpjlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mpjlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mpjlab

    if Path(mpjlab.__file__).resolve().parent != SRC / "mpjlab":
        raise ImportError(f"mpjlab was imported from {mpjlab.__file__}, not from {SRC}")


class _Tally:
    """Exact, deterministic results of a pass; equal on every pass of one seed."""

    def __init__(self, w: Workload):
        self._w = w
        self.counted = 0
        self.worst_prefix = 0
        self.prefix_sum = 0
        self.raw_bits_sum = 0       # mpjk: first message minus its openings
        self.survivor_sum = 0       # bucketing: survivors per announcer
        self.survivor_count = 0
        self._terminal = 0          # last announcing bucketing player
        if w.protocols[0] == "bucketing":
            from mpjlab.bucketing import bucket_width_plan

            self._terminal = bucket_width_plan(w.n, w.k).terminal

    def add_prefix(self, bits: int) -> None:
        self.counted += 1
        self.worst_prefix = max(self.worst_prefix, bits)
        self.prefix_sum += bits

    def add_transcript(self, transcript) -> None:
        self.add_prefix(transcript.prefix_cost)
        w = self._w
        if w.protocols[0] == "mpjk-sublinear":
            # the naive subprotocol's openings are m = n bits each
            self.raw_bits_sum += len(transcript.messages[0]) - (w.k - 2) * w.d * w.n
        for j in range(2, self._terminal + 1):
            self.survivor_sum += sum(transcript.messages[j - 1].bits[: w.n])
            self.survivor_count += 1

    def as_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if not key.startswith("_")}


def _record_failure(failures: list, out_dir: Path, tag: str, kind: str, message: str,
                    instances: tuple = ()) -> None:
    from mpjlab.core import instance_to_dict

    entry = {"kind": kind, "message": message, "instances": []}
    if len(failures) < MAX_FAILURE_FILES:
        for t, inst in enumerate(instances):
            path = out_dir / "failures" / f"{tag}-{len(failures)}-{t}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(instance_to_dict(inst)) + "\n", encoding="utf-8")
            entry["instances"].append(str(path))
    failures.append(entry)


def _sweep(w: Workload, seed: int, tracer, out_dir: Path, t0: float) -> dict:
    from mpjlab import core, registry, sim
    from mpjlab.sim import ProtocolContractError, ProtocolInvariantError

    span = tracer.span if tracer else (lambda name: nullcontext())
    protocol = w.protocols[0]
    with span("registry.build"):
        built = registry.build_protocol(protocol, n=w.n, k=w.k, d=w.d, seed=seed)
    handle = built.handle
    if w.kind == "exhaustive":
        with span("core.enumerate"):
            instances = list(core.enumerate_instances(w.n, handle.k, built.variant, built.perm_mask))
    else:
        with span("core.sample"):
            instances = list(core.sample_instances(
                w.n, handle.k, built.variant, built.perm_mask, count=w.samples, seed=seed
            ))
    bound = registry.cost_bound(protocol, n=w.n, k=handle.k, d=w.d)
    run, evaluate = sim.run, core.eval_instance
    if tracer:
        handle = tracer.trace_players(handle, player_roles(protocol, handle.k))
        run, evaluate = tracer.wrap("sim.run", run), tracer.wrap("core.eval", evaluate)
    tally = _Tally(w)
    failures: list = []
    durations = array("q")
    clock = time.perf_counter_ns
    setup_s = time.perf_counter() - t0

    for op, inst in enumerate(instances):
        if tracer:
            tracer.op_id = op
        started = clock()
        try:
            transcript = run(handle, inst)
            expected = evaluate(inst)
        except (ProtocolContractError, ProtocolInvariantError) as exc:
            durations.append(clock() - started)
            _record_failure(failures, out_dir, f"{w.name}-seed{seed}", type(exc).__name__,
                            str(exc), (inst,))
            continue
        durations.append(clock() - started)
        tally.add_transcript(transcript)
        if transcript.output != expected:
            _record_failure(failures, out_dir, f"{w.name}-seed{seed}", "wrong-answer",
                            f"expected {expected}, got {transcript.output}", (inst,))
    return _result(setup_s, durations, failures, tally, bound)


def _attack(w: Workload, seed: int, tracer, out_dir: Path, t0: float) -> dict:
    from mpjlab import adversary, registry
    from mpjlab.adversary import BoundRefusedError, CrossingSearchError
    from mpjlab.sim import ProtocolContractError, ProtocolInvariantError

    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("registry.build"):
        handles = [
            registry.build_protocol(p, n=w.n, k=w.k, seed=seed).handle for p in w.protocols
        ]
    # the attack's own bound: the counting limit for each of players 1..k-1
    bound = (w.k - 1) * adversary.max_message_bits(w.n)
    build, replay = adversary.build_fooling_inputs, adversary.verify_fooling
    if tracer:
        handles = [tracer.trace_players(h, player_roles(h.name, h.k)) for h in handles]
        replay = tracer.wrap("adversary.replay", replay)
    tally = _Tally(w)
    failures: list = []
    durations = array("q")
    clock = time.perf_counter_ns
    setup_s = time.perf_counter() - t0

    for op, handle in enumerate(handles):
        if tracer:
            tracer.op_id = op
        started = clock()
        try:
            pair = build(handle)
            report = replay(handle, pair.inst0, pair.inst1)
        except (BoundRefusedError, CrossingSearchError, ProtocolContractError,
                ProtocolInvariantError) as exc:
            durations.append(clock() - started)
            _record_failure(failures, out_dir, f"{w.name}-seed{seed}-{handle.name}",
                            type(exc).__name__, str(exc))
            continue
        durations.append(clock() - started)
        tally.add_prefix(sum(len(m) for m in pair.prefix_messages))
        if not report.fooled:
            _record_failure(failures, out_dir, f"{w.name}-seed{seed}-{handle.name}",
                            "not-fooled", repr(report), (pair.inst0, pair.inst1))
    return _result(setup_s, durations, failures, tally, bound)


def _result(setup_s, durations, failures, tally: _Tally, bound) -> dict:
    return {
        "setup_s": setup_s,
        "ops": len(durations),
        "op_ns": durations.tolist(),
        "failures": failures,
        "exact": tally.as_dict() | {"bound": bound},
    }


def _layers(tracer, exact: dict) -> dict:
    """The per-layer metrics of one traced pass (all but trace.overhead_share)."""
    totals = tracer.totals()

    def secs(*names: str) -> float:
        return sum(totals.get(n, (0, 0))[0] for n in names) / 1e9

    def calls(name: str) -> int:
        return totals.get(name, (0, 0))[1]

    def mean(total: int, count: int) -> float:
        return total / count if count else 0.0

    return {
        "core.sample_s": secs("core.sample"),
        "core.enumerate_s": secs("core.enumerate"),
        "core.eval_s": secs("core.eval"),
        "sim.view_s": secs("sim.view"),
        "sim.view_calls": calls("sim.view"),
        "sim.player_s": secs(*PLAYER_SPANS),
        "sim.run_self_s": secs("sim.run"),
        "sim.codec_s": secs("sim.codec"),
        "sim.codec_calls": calls("sim.codec"),
        "sim.msg_bits": tracer.msg_bits,
        "covers.build_s": secs("covers.build"),
        "covers.calls": tracer.cover_calls,
        "covers.reuse_ratio": mean(tracer.cover_repeats, tracer.cover_calls),
        "jump.openings_s": secs("jump.openings"),
        "jump.replies_s": secs("jump.replies"),
        "jump.answer_s": secs("jump.answer"),
        "jump.sj_chain_s": secs("jump.sj_chain"),
        "jump.raw_bits_mean": mean(exact["raw_bits_sum"], exact["counted"]),
        "bucketing.first_s": secs("bucketing.first"),
        "bucketing.announce_s": secs("bucketing.announce"),
        "bucketing.answer_s": secs("bucketing.answer"),
        "bucketing.survivors_mean": mean(exact["survivor_sum"], exact["survivor_count"]),
        "adversary.halfweight_s": secs("adversary.halfweight"),
        "adversary.cell_search_s": secs("adversary.cell_search"),
        "adversary.message_evals": tracer.count_children("families.message", "adversary.cell_search"),
        "adversary.replay_s": secs("adversary.replay"),
        "families.message_s": secs("families.message"),
        "registry.build_s": secs("registry.build"),
    }


def run_pass(w: Workload, seed: int, traced: bool, out_dir: Path = OUT) -> dict:
    """Run one pass in this process and return its measurements."""
    t0 = time.perf_counter()
    import_package()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        body = _attack if w.kind == "attack" else _sweep
        result = body(w, seed, tracer, out_dir, t0)
    finally:
        if tracer:
            tracer.uninstall()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = _layers(tracer, result["exact"])
        tracer.write(out_dir / f"spans-{w.name}.tsv.gz")
    return result


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    result = run_pass(WORKLOADS[args["workload"]], args["seed"], args["traced"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
