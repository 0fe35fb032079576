"""In-memory spans around mpjlab's layers, recorded from outside the package.

The package looks its collaborators up by name at call time, so the
benchmark can replace those names with timing wrappers without editing
the package: `sim.make_view`, the `Message` codec methods, the cover and
chain constructors that `jump` calls, and the adversary's cell search. A
protocol's players are wrapped through `dataclasses.replace` on its
handle. Each span records its name, start, end, parent span and the id of
the protocol run or attack it belongs to; the spans stay in flat arrays
until the pass ends and are then written out.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

CODEC = "sim.codec"
COVER = "covers.build"


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op_id = -1  # set by the caller before each protocol run or attack
        self.msg_bits = 0
        self.cover_calls = 0
        self.cover_repeats = 0
        self._cover_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- wrapping the package ------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _cover_wrapper(self, fn: Callable, key_of: Callable) -> Callable:
        traced = self.wrap(COVER, fn)

        def build(*args):
            key = key_of(*args)
            self.cover_calls += 1
            if key in self._cover_keys:
                self.cover_repeats += 1
            else:
                self._cover_keys.add(key)
            return traced(*args)

        return build

    def install(self) -> None:
        """Replace the package's looked-up names with traced ones."""
        sim = importlib.import_module("mpjlab.sim")
        jump = importlib.import_module("mpjlab.jump")
        adversary = importlib.import_module("mpjlab.adversary")
        message = sim.Message
        for attr in ("__init__", "slice", "chunks", "to_uint"):
            self._patch(message, attr, self.wrap(CODEC, vars(message)[attr]))
        for attr in ("from_bits", "from01", "from_uint"):
            self._patch(message, attr, classmethod(self.wrap(CODEC, vars(message)[attr].__func__)))
        self._patch(message, "concat", staticmethod(self.wrap(CODEC, vars(message)["concat"].__func__)))
        self._patch(sim, "make_view", self.wrap("sim.view", sim.make_view))
        self._patch(jump, "build_sj_chain", self.wrap("jump.sj_chain", jump.build_sj_chain))
        self._patch(jump, "build_d_cover",
                    self._cover_wrapper(jump.build_d_cover, lambda f, d: (f, None, d)))
        self._patch(jump, "build_sd_cover",
                    self._cover_wrapper(jump.build_sd_cover, lambda f, s, d: (f, frozenset(s), d)))
        self._patch(adversary, "find_crossed_cell",
                    self.wrap("adversary.cell_search", adversary.find_crossed_cell))
        self._patch(adversary, "half_weight_strings",
                    self.wrap("adversary.halfweight", adversary.half_weight_strings))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def trace_players(self, handle, roles: tuple[str, ...]):
        """A copy of the handle whose player j runs inside a span named roles[j-1]."""
        message = importlib.import_module("mpjlab.sim").Message

        def player(fn: Callable, role: str) -> Callable:
            traced = self.wrap(role, fn)

            def speak(view):
                msg = traced(view)
                if isinstance(msg, message):
                    self.msg_bits += len(msg)
                return msg

            return speak

        return dataclasses.replace(
            handle, players=tuple(player(fn, role) for fn, role in zip(handle.players, roles))
        )

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (summed self time in ns, span count).

        Self time is a span's duration minus the durations of its children.
        """
        count = len(self.name)
        child_ns = [0] * count
        for idx in range(count):
            parent = self.parent[idx]
            if parent >= 0:
                child_ns[parent] += self.end[idx] - self.start[idx]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for idx in range(count):
            nid = self.name[idx]
            self_ns[nid] += self.end[idx] - self.start[idx] - child_ns[idx]
            calls[nid] += 1
        return {name: (self_ns[nid], calls[nid]) for nid, name in enumerate(self.names)}

    def count_children(self, child: str, parent: str) -> int:
        """How many spans named `child` have a parent span named `parent`."""
        if child not in self._ids or parent not in self._ids:
            return 0
        cid, pid = self._ids[child], self._ids[parent]
        return sum(
            1
            for idx in range(len(self.name))
            if self.name[idx] == cid and self.parent[idx] >= 0 and self.name[self.parent[idx]] == pid
        )

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line of a gzip file:
        id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for idx in range(len(self.name)):
                fh.write(
                    f"{idx}\t{self.names[self.name[idx]]}\t{self.start[idx]}\t"
                    f"{self.end[idx]}\t{self.parent[idx]}\t{self.op[idx]}\n"
                )
