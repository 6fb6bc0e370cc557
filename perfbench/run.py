#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload fleet-burst --seed 1 --seconds 10 --trace 0

Run it from the root of the repository: it imports the program from
``src/``.  A run builds the workload's inputs from ``--seed``, then
measures whole rounds until ``run()`` and ``check_mvc()`` together have
taken ``--seconds``.  A round builds the system, posts the stream,
drains it, verifies it and closes it.  The first round's set-up is the
cold one: it is timed from the start of this script, so it includes
importing the program.  Every round checks its outputs (see
``checks.py``); any failure makes ``correct`` false and the exit code 1.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ``tracing.py`` and writes the last round's
aggregated spans to ``perfbench/out/``.  End-to-end numbers only ever
come from untraced runs.  A summary of every round (its phase times and
trace digest) goes to standard error.

The process re-executes itself once with a fixed ``PYTHONHASHSEED`` so
that string hashing, and with it every set and dict order, is the same
in every run.
"""

from __future__ import annotations

from time import perf_counter, process_time

STARTED = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HASH_SEED = "0"


def fix_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


if __name__ == "__main__":
    fix_hash_seed()  # before the program is imported: this process is discarded

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402  (needs src/ on the path)
import workloads  # noqa: E402
from repro.system.builder import WarehouseSystem  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
#: stop starting rounds once this much wall time has passed
WALL_BUDGET_S = 120.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Round:
    posted: int
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    rss_mb: float = 0.0
    verify_s: float = 0.0
    events: int = 0
    lags: list = field(default_factory=list)
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str | None = None
    layers: dict = field(default_factory=dict)


def measure(workload, inputs, definitions, tracer=None, started=None):
    """Build, post, drain and verify once; returns (system, round, report).

    Only these phases are timed; set-up from ``started`` when given.
    The system stays open for the checks.
    """
    world = workloads.build_world(workload, inputs)
    config = workloads.system_config(workload)
    result = Round(posted=len(inputs.stream))
    gc.collect()
    if tracer is not None:
        tracer.phase = "setup"
    start = perf_counter() if started is None else started
    system = WarehouseSystem(world, definitions, config)
    for at, transaction in inputs.stream:
        system.post(transaction, at)
    result.setup_s = perf_counter() - start

    if tracer is not None:
        tracer.phase = "run"
    cpu0, start = process_time(), perf_counter()
    result.events = system.run()
    result.run_s = perf_counter() - start
    result.cpu_s = process_time() - cpu0
    result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.phase = "verify"
    start = perf_counter()
    report = system.check_mvc()
    result.verify_s = perf_counter() - start
    if tracer is not None:
        tracer.phase = "check"
    return system, result, report


def check(workload, system, result: Round, report, definitions, expected) -> None:
    """Run every output check; fills ``lags``, ``failed`` and ``failures``."""
    history = system.history
    numbered = system.integrator.numbered
    ids = [update_id for update_id, _txn, _at in numbered]
    lags = checks.staleness(numbered, history)
    result.lags = list(lags.values())
    result.failed = checks.uncovered(ids, history) + max(0, result.posted - len(ids))
    level = system.expected_level()
    failures = result.failures
    if level != workload.level:
        failures.append(f"mvc: configuration promises {level}, expected {workload.level}")
    failures += checks.check_mvc_report(report, level)
    failures += checks.check_exactly_once(ids, result.posted, history)
    failures += checks.check_staleness(lags)
    failures += checks.check_convergence(history[-1].views, definitions, expected)


def run_round(workload, inputs, definitions, expected, tracer=None, started=None) -> Round:
    """One build, drain, verification, check and close of ``workload``."""
    children0 = children_cpu()
    system, result, report = measure(workload, inputs, definitions, tracer, started)
    check(workload, system, result, report, definitions, expected)
    if workload.runtime == "des":
        result.digest = system.sim.trace.digest()
    if tracer is not None:
        vut_peak = system.metrics().vut_peak
        makespan = system.sim.now
    system.close()
    result.child_cpu_s = children_cpu() - children0
    if tracer is not None:
        result.layers = layer_metrics(tracer, result, vut_peak, makespan)
    return result


#: unit of every per-layer metric, in the order they are reported
LAYER_UNITS = {
    "relational.versioning.self_s": "s",
    "relational.versioning.rows_copied_per_update": "rows/update",
    "warehouse.self_s": "s",
    "warehouse.rows_copied_per_commit": "rows/commit",
    "warehouse.commits": "count",
    "merge.self_s": "s",
    "merge.submission.self_s": "s",
    "merge.vut_peak": "count",
    "viewmgr.self_s": "s",
    "viewmgr.batches": "count",
    "relational.delta.self_s": "s",
    "integrator.basedata.self_s": "s",
    "integrator.basedata.snapshot_queries": "count",
    "relational.plan.self_s": "s",
    "relational.plan.calls": "count",
    "runtime.round_trips": "count",
    "runtime.remote_s": "s",
    "runtime.child_cpu_s": "s",
    "sim.self_s": "s",
    "sim.events": "count",
    "sources.self_s": "s",
    "integrator.self_s": "s",
    "obs.self_s": "s",
    "obs.trace_events": "count",
    "consistency.self_s": "s",
    "consistency.evaluate_calls": "count",
    "merge.queue_wait_p95_vt": "clock",
    "warehouse.queue_wait_p95_vt": "clock",
    "warehouse.utilisation": "ratio",
}


def layer_metrics(tracer, result: Round, vut_peak: int, makespan: float) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    run = "run"
    commits, _ = tracer.span_total(run, "warehouse", "ViewStore.apply")
    layers = {
        f"{layer}.self_s": tracer.layer_self(run, layer)
        for layer in (
            "relational.versioning", "warehouse", "merge", "merge.submission",
            "viewmgr", "relational.delta", "integrator.basedata",
            "relational.plan", "sources", "integrator", "obs",
        )
    }
    plan_calls, _ = tracer.span_total(run, "relational.plan")
    round_trips, remote_s = tracer.span_total(run, "runtime")
    evaluate_calls, _ = tracer.span_total("verify", "consistency", "evaluate")
    if result.digest is None:
        # Wall-clock runtimes execute virtual costs as no-ops: the
        # warehouse was busy for as long as its handlers ran.
        warehouse_busy = tracer.layer_self(run, "warehouse")
    else:
        warehouse_busy = tracer.warehouse_busy
    merge_waits = tracer.waits("merge_ready", "merge_submit")
    warehouse_waits = tracer.waits("wh_arrive", "wh_start")
    layers.update({
        "relational.versioning.rows_copied_per_update":
            tracer.counts[(run, "rows_copied:relational.versioning")] / result.posted,
        "warehouse.rows_copied_per_commit":
            tracer.counts[(run, "rows_copied:warehouse")] / max(1, commits),
        "warehouse.commits": commits,
        "merge.vut_peak": vut_peak,
        "viewmgr.batches": tracer.counts[(run, "vm_batches")],
        "integrator.basedata.snapshot_queries": tracer.counts[(run, "snapshot_queries")],
        "relational.plan.calls": plan_calls,
        "runtime.round_trips": round_trips,
        "runtime.remote_s": remote_s,
        "runtime.child_cpu_s": result.child_cpu_s,
        "sim.self_s": tracer.layer_self(run, "sim") - tracer.orphan_handler_s[run],
        "sim.events": result.events,
        "obs.trace_events": tracer.counts[(run, "trace_events")],
        "consistency.self_s": tracer.layer_self("verify", "consistency"),
        "consistency.evaluate_calls": evaluate_calls,
        "merge.queue_wait_p95_vt": checks.percentile(merge_waits, 0.95),
        "warehouse.queue_wait_p95_vt": checks.percentile(warehouse_waits, 0.95),
        "warehouse.utilisation": warehouse_busy / makespan,
    })
    return layers


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](1.0)
    inputs = workloads.make_inputs(workload, args.seed)
    definitions = workloads.definitions(workload)
    expected = checks.expected_database(workload.tables, inputs.final)

    rounds: list[Round] = []
    measured = 0.0
    tracer = None
    while True:
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            rounds.append(run_round(workload, inputs, definitions, expected, tracer,
                                    None if rounds else STARTED))
        finally:
            if tracer is not None:
                tracer.uninstall()
        measured += rounds[-1].run_s + rounds[-1].verify_s
        elapsed = perf_counter() - STARTED
        if measured >= args.seconds or elapsed * (len(rounds) + 1) / len(rounds) > WALL_BUDGET_S:
            break

    failures = []
    for index, done in enumerate(rounds):
        failures += [f"round {index}: {message}" for message in done.failures]
    digests = {done.digest for done in rounds}
    if len(digests) > 1:
        failures.append(f"determinism: rounds recorded {len(digests)} trace digests")
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    first = rounds[0]
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r.layers[name] for r in rounds), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.export()}, handle, indent=1)
    else:
        values = {
            "setup_s": (first.setup_s, "s"),
            "updates_per_s": (statistics.median(r.posted / r.run_s for r in rounds), "1/s"),
            "cpu_s": (statistics.median(r.cpu_s + r.child_cpu_s for r in rounds), "s"),
            "peak_rss_mb": (first.rss_mb, "MB"),
            "staleness_p50": (statistics.median(checks.percentile(r.lags, 0.50) for r in rounds), "clock"),
            "staleness_p95": (statistics.median(checks.percentile(r.lags, 0.95) for r in rounds), "clock"),
            "verify_s": (statistics.median(r.verify_s for r in rounds), "s"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "digest": first.digest,
        "setup_s": [r.setup_s for r in rounds],
        "run_s": [r.run_s for r in rounds],
        "verify_s": [r.verify_s for r in rounds],
    }), file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r.posted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
