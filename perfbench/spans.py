"""Span tracing for the traced benchmark run, from outside the program.

The tracer wraps the public entry point of every layer of the smart-RPC
stack (see :data:`LAYER_TARGETS`) and records one span per call: a name,
a start and an end on ``time.perf_counter_ns``.  Spans stay in memory
and are attributed when the op that contains them has returned.

Attribution follows the RPC's single active thread: at any instant the
time belongs to the most recently started span that is still open, so a
span's self time is its duration minus what its children cover, and
spans opened on the callee's threads while the caller blocks in
``send`` are children of that ``send``.  The sweep partitions the op's
wall time exactly; where the fetch pipeline really overlaps a prefetch
exchange with handler work, the overlap goes to the newer span.

Parents are derived by the same sweep, after the op, so the wrappers do
no more than two clock reads and two list appends.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.rpc import marshal
from repro.smartrpc import coherency, transfer
from repro.smartrpc.cache import CacheManager
from repro.smartrpc.closure import ClosureWalker
from repro.smartrpc.pipeline import FetchPipeline
from repro.smartrpc.swizzle import Swizzler
from repro.transport.shm import ShmEndpoint
from repro.transport.tcp import TcpEndpoint

#: Span name of the whole session; its self time is the unattributed rest.
OP = "op"
SEND = "transport.send"
PROCEDURE = "workloads.procedure"

#: (owner, attribute, span name, layer bucket) for every wrapped entry.
LAYER_TARGETS: List[Tuple[object, str, str, str]] = [
    (TcpEndpoint, "send", SEND, "transport"),
    (ShmEndpoint, "send", SEND, "transport"),
    *[
        (marshal, attr, f"rpc.{attr}", "rpc")
        for attr in (
            "pack_value", "unpack_value", "pack_args",
            "unpack_args", "pack_result", "unpack_result",
        )
    ],
    (CacheManager, "handle_fault", "cache.handle_fault", "cache"),
    (ClosureWalker, "walk", "closure.walk", "closure"),
    (transfer, "encode_batch", "transfer.encode_batch", "transfer.encode"),
    (transfer, "apply_batch", "transfer.apply_batch", "transfer.apply"),
    (transfer, "apply_reply", "transfer.apply_reply", "transfer.apply"),
    (Swizzler, "swizzle", "swizzle.swizzle", "swizzle"),
    (Swizzler, "unswizzle", "swizzle.unswizzle", "swizzle"),
    *[
        (coherency, attr, f"coherency.{attr}", "coherency.piggyback")
        for attr in ("encode_piggyback", "apply_piggyback")
    ],
    *[
        (coherency, attr, f"coherency.{attr}", "coherency.session_end")
        for attr in (
            "end_session", "handle_invalidate", "handle_write_back",
            "handle_writeback_prepare", "handle_writeback_commit",
        )
    ],
    (FetchPipeline, "fill_page", "pipeline.fill_page", "pipeline"),
]

#: Every layer bucket plus the op's own (unattributed) self time.
BUCKETS = tuple(
    dict.fromkeys(
        [bucket for *_, bucket in LAYER_TARGETS] + ["workloads", OP]
    )
)

BUCKET_OF: Dict[str, str] = {
    name: bucket for _, _, name, bucket in LAYER_TARGETS
}
BUCKET_OF[PROCEDURE] = "workloads"
BUCKET_OF[OP] = OP

Event = Tuple[int, int, Optional[str]]


class OpProfile:
    """What one traced op did, attributed by span."""

    def __init__(self) -> None:
        self.wall_ns = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.send_ns: List[int] = []
        self.spans: List[dict] = []

    def bucket_ns(self) -> Dict[str, int]:
        """Self time summed per layer bucket (all buckets present)."""
        totals = dict.fromkeys(BUCKETS, 0)
        for name, ns in self.self_ns.items():
            totals[BUCKET_OF[name]] += ns
        return totals


class SpanTracer:
    """Installs the layer wrappers and attributes each op's spans."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._ids = itertools.count(1)
        self._saved: List[Tuple[object, str, object]] = []
        self._procedures: List[Tuple[dict, str, tuple]] = []
        #: Layer counts the spans alone cannot give.
        self.counts: Dict[str, int] = defaultdict(int)

    # -- wrappers ---------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        append = self._events.append
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            append((clock(), sid, name))
            try:
                result = fn(*args, **kwargs)
            finally:
                append((clock(), -sid, None))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_walk(self, items) -> None:
        self.counts["closure_items"] += len(items)

    def _on_piggyback(self, payload) -> None:
        self.counts["piggyback_bytes"] += len(payload)

    def install(self, procedure_tables: List[dict]) -> None:
        """Wrap every layer entry point and every bound procedure.

        ``procedure_tables`` are the callee runtimes' procedure
        registries (qualified name -> ``(ProcedureDef, implementation)``).
        """
        if self._saved:
            raise RuntimeError("span tracer already installed")
        hooks = {
            "closure.walk": self._on_walk,
            "coherency.encode_piggyback": self._on_piggyback,
        }
        for owner, attr, name, _bucket in LAYER_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))
        for table in procedure_tables:
            for qualified, bound in list(table.items()):
                procedure, implementation = bound
                self._procedures.append((table, qualified, bound))
                table[qualified] = (
                    procedure, self._wrap(implementation, PROCEDURE)
                )

    def uninstall(self) -> None:
        """Put every original back (later ops run unwrapped)."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for table, qualified, bound in self._procedures:
            table[qualified] = bound
        self._procedures.clear()

    # -- ops --------------------------------------------------------------

    def begin_op(self) -> int:
        """Open the op span; drops any straggler events from before."""
        self._events.clear()
        sid = next(self._ids)
        self._events.append((time.perf_counter_ns(), sid, OP))
        return sid

    def end_op(self, sid: int, keep_spans: bool = False) -> OpProfile:
        """Close the op span and attribute everything inside it."""
        self._events.append((time.perf_counter_ns(), -sid, None))
        events = list(self._events)
        self._events.clear()
        return attribute(events, sid, keep_spans)


def attribute(
    events: List[Event], op_sid: int, keep_spans: bool = False
) -> OpProfile:
    """Sweep one op's events into self times under one active thread.

    Between consecutive events the elapsed time goes to the most
    recently started span still open, so the self times of all spans
    (the op's own included) add up to the op's wall time exactly.
    Events before the op starts or of spans opened before it are
    ignored; spans still open when the op ends are cut off there.
    """
    profile = OpProfile()
    events.sort(key=lambda event: event[0])
    open_spans: List[int] = []
    names: Dict[int, str] = {}
    starts: Dict[int, int] = {}
    parents: Dict[int, int] = {}
    op_start = last = None
    for stamp, sid, name in events:
        if op_start is None:
            if sid == op_sid:
                op_start = last = stamp
                open_spans.append(sid)
                names[sid], starts[sid] = name, stamp
            continue
        profile.self_ns[names[open_spans[-1]]] += stamp - last
        last = stamp
        if sid > 0:
            parents[sid] = open_spans[-1]
            open_spans.append(sid)
            names[sid], starts[sid] = name, stamp
            profile.calls[name] += 1
            continue
        sid = -sid
        if sid not in starts:
            continue
        open_spans.remove(sid)
        name = names[sid]
        if name == SEND:
            profile.send_ns.append(stamp - starts[sid])
        if keep_spans:
            profile.spans.append(
                {
                    "id": sid,
                    "name": name,
                    "start_us": (starts[sid] - op_start) / 1e3,
                    "end_us": (stamp - op_start) / 1e3,
                    "parent": parents.get(sid),
                }
            )
        if sid == op_sid:
            profile.wall_ns = stamp - op_start
            break
    return profile
