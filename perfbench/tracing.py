"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces the public functions at each layer boundary
with thin wrappers that time the call and remember which span was open
when it started (its parent, per thread).  A layer's self time is the
total time of its spans minus the time of their child spans, so nested
layers are never counted twice.  ``Tracer.uninstall()`` puts every
original function back.

Spans are aggregated in memory by (phase, name, parent name) — count,
total and self seconds — and written out once, at the end of the run.
Counters (rows copied, trace events, snapshot queries, ...) are recorded
by the same wrappers, so every ratio is measured where the work happens.
The wrappers only observe: they call the original with the original
arguments and return its result, so a traced des run records the same
``Trace.digest()`` as an untraced one.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, layer) — the layer is the module name of the
# code the span times.  Classes list only methods they define themselves.
BOUNDARIES = (
    ("repro.sim.kernel", "Simulator.run", "sim"),
    ("repro.runtime.parallel", "ParallelKernel.run", "sim"),
    ("repro.sources.source", "Source.execute", "sources"),
    ("repro.sources.source", "Source.handle", "sources"),
    ("repro.integrator.integrator", "Integrator.handle", "integrator"),
    ("repro.integrator.basedata", "BaseDataService.handle", "integrator.basedata"),
    ("repro.viewmgr.base", "ViewManager.handle", "viewmgr"),
    ("repro.viewmgr.complete_n", "CompleteNViewManager.handle", "viewmgr"),
    ("repro.viewmgr.base", "propagate_delta", "relational.delta"),
    ("repro.relational.plan", "MaintenancePlan.propagate", "relational.plan"),
    ("repro.relational.plan", "MaintenancePlan.advance", "relational.plan"),
    ("repro.relational.plan", "MaintenancePlan.propagate_counts", "relational.plan"),
    ("repro.relational.plan", "PlanLibrary.propagate_all_counts", "relational.plan"),
    ("repro.runtime.procpool", "RemoteViewPlan.propagate", "runtime"),
    ("repro.merge.process", "MergeProcess.handle", "merge"),
    ("repro.merge.submission", "SubmissionPolicy.offer", "merge.submission"),
    ("repro.merge.submission", "SubmissionPolicy.on_commit", "merge.submission"),
    ("repro.merge.submission", "EagerPolicy.offer", "merge.submission"),
    ("repro.merge.submission", "SequentialPolicy.offer", "merge.submission"),
    ("repro.merge.submission", "SequentialPolicy.on_commit", "merge.submission"),
    ("repro.merge.submission", "DependencySequencedPolicy.offer", "merge.submission"),
    ("repro.merge.submission", "DependencySequencedPolicy.on_commit", "merge.submission"),
    ("repro.merge.submission", "DbmsDependencyPolicy.offer", "merge.submission"),
    ("repro.merge.submission", "DbmsDependencyPolicy.on_commit", "merge.submission"),
    ("repro.merge.submission", "BatchingPolicy.offer", "merge.submission"),
    ("repro.merge.submission", "BatchingPolicy.on_commit", "merge.submission"),
    ("repro.warehouse.warehouse", "WarehouseProcess.handle", "warehouse"),
    ("repro.warehouse.store", "ViewStore.apply", "warehouse"),
    ("repro.relational.database", "VersionedDatabase.commit", "relational.versioning"),
    ("repro.relational.database", "Database.snapshot", "relational.versioning"),
    ("repro.sim.tracing", "Trace.record", "obs"),
    ("repro.sim.tracing", "ThreadSafeTrace.record", "obs"),
    ("repro.system.builder", "WarehouseSystem.check_mvc", "consistency"),
    ("repro.consistency.ordered", "evaluate", "consistency"),
    ("repro.consistency.states", "evaluate", "consistency"),
)

#: trace events whose times bound the merge and warehouse queues
MARKED_KINDS = frozenset({"merge_ready", "merge_submit", "wh_start"})

#: handler spans: those with no parent on their own thread ran on a
#: worker thread of the wall-clock kernel, outside the kernel's own span
HANDLER_LAYERS = frozenset(
    {"sources", "integrator", "integrator.basedata", "viewmgr", "merge", "warehouse"}
)


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _own(owner, attr: str):
    """``owner``'s own attribute: a class's, never one it inherits."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Aggregated spans and counters over one or more phases."""

    def __init__(self) -> None:
        self.phase = "setup"
        # (phase, layer, name, parent name) -> [count, total s, self s]
        self.spans: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.self_s: Counter = Counter()  # (phase, layer) -> self seconds
        self.counts: Counter = Counter()  # (phase, counter) -> count
        self.orphan_handler_s: Counter = Counter()  # phase -> seconds
        # (kind, txn id) -> clock time of the trace events that bound the
        # merge's submission queue and the warehouse's admission queue
        self.marks: dict[tuple[str, int], float] = {}
        self.warehouse_busy = 0.0  # clock time the warehouse executed for
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += n

    def _wrap(self, function, layer: str, name: str):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [layer, name, 0.0]  # layer, name, child seconds
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += elapsed
                phase = tracer.phase
                with tracer._lock:
                    entry = tracer.spans[
                        (phase, layer, name, parent[1] if parent else None)
                    ]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[2]
                    tracer.self_s[(phase, layer)] += elapsed - frame[2]
                    if parent is None and layer in HANDLER_LAYERS:
                        tracer.orphan_handler_s[phase] += elapsed

        return traced

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        for module_name, path, layer in BOUNDARIES:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._wrap(_own(owner, attr), layer, path))
        self._install_counters()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, _own(owner, attr)))
        setattr(owner, attr, replacement)

    def _install_counters(self) -> None:
        from repro.integrator.basedata import BaseDataService
        from repro.relational.relation import Relation
        from repro.sim.tracing import Trace
        from repro.warehouse.warehouse import WarehouseProcess

        tracer = self
        copy = Relation.copy

        def counted_copy(relation):
            layer = tracer.current_layer()
            if layer is not None:
                tracer.count(f"rows_copied:{layer}", relation.distinct_count())
            return copy(relation)

        self._patch(Relation, "copy", counted_copy)

        record = Trace.record  # already the traced wrapper

        def counted_record(trace, time, kind, process, **detail):
            if trace.wants(kind):
                tracer.count("trace_events")
                if kind == "vm_compute":
                    tracer.count("vm_batches")
                elif kind in MARKED_KINDS:
                    with tracer._lock:
                        tracer.marks[(kind, detail["txn"])] = time
                        if kind == "wh_start":
                            tracer.warehouse_busy += detail["cost"]
            return record(trace, time, kind, process, **detail)

        self._patch(Trace, "record", counted_record)

        receive = WarehouseProcess.handle

        def marked_receive(warehouse, message, sender):
            with tracer._lock:
                tracer.marks[("wh_arrive", message.txn.txn_id)] = warehouse.sim.now
            return receive(warehouse, message, sender)

        self._patch(WarehouseProcess, "handle", marked_receive)

        handle = BaseDataService.handle

        def counted_handle(service, message, sender):
            if type(message).__name__ == "SnapshotQuery":
                tracer.count("snapshot_queries")
            return handle(service, message, sender)

        self._patch(BaseDataService, "handle", counted_handle)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def layer_self(self, phase: str, layer: str) -> float:
        return self.self_s.get((phase, layer), 0.0)

    def span_total(self, phase: str, layer: str, name: str | None = None) -> tuple[int, float]:
        calls, total = 0, 0.0
        for (p, lay, span, _parent), (count, seconds, _self) in self.spans.items():
            if p == phase and lay == layer and (name is None or span == name):
                calls += count
                total += seconds
        return calls, total

    def waits(self, start_kind: str, end_kind: str) -> list[float]:
        """Per transaction: clock time from ``start_kind`` to ``end_kind``."""
        return [
            end - self.marks[(start_kind, txn)]
            for (kind, txn), end in self.marks.items()
            if kind == end_kind and (start_kind, txn) in self.marks
        ]

    def export(self) -> list[dict]:
        return [
            {
                "phase": phase,
                "layer": layer,
                "span": name,
                "parent": parent,
                "count": count,
                "total_s": total,
                "self_s": own,
            }
            for (phase, layer, name, parent), (count, total, own) in sorted(
                self.spans.items(), key=lambda item: (item[0][0], -item[1][1])
            )
        ]
