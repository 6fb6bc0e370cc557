#!/usr/bin/env python3
"""Self-test of the benchmark's checks and of its tracer.

    python3 perfbench/selftest.py

For each des workload, at a tenth of its size and with seed 1:

1. a clean run passes every check;
2. each check fails on a deliberately corrupted copy of that run —
   a row dropped from one final view (convergence), one update id
   covered by two commits and one covered by none (exactly once), one
   historical warehouse state mutated (``check_mvc``), one commit time
   set before its source commit (staleness);
3. a traced run records the same ``Trace.digest()`` as an untraced one,
   so the tracer's wrappers do not perturb the simulation.

It also checks that ``BENCHMARK.json`` names exactly the workloads and
per-layer metrics ``run.py`` reports.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run  # first: puts src/ on the import path

import checks
import workloads
from tracing import Tracer

DES_WORKLOADS = ("fleet-burst", "star-queryback")
SCALE = 0.1
SEED = 1


def clean_run(name: str, tracer=None):
    workload = workloads.WORKLOADS[name](SCALE)
    inputs = workloads.make_inputs(workload, SEED)
    definitions = workloads.definitions(workload)
    expected = checks.expected_database(workload.tables, inputs.final)
    if tracer is not None:
        tracer.install()
    try:
        system, result, report = run.measure(workload, inputs, definitions, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.check(workload, system, result, report, definitions, expected)
    return workload, system, result, definitions, expected


def drop_a_row(system, definitions, expected) -> list[str]:
    views = dict(system.history[-1].views)
    name = next(n for n in sorted(views) if len(views[n]))
    damaged = views[name].copy()
    damaged.delete(next(iter(damaged)))
    views[name] = damaged
    return checks.check_convergence(views, definitions, expected)


def cover_twice(system, posted: int) -> list[str]:
    history = list(system.history)
    first, second = history[1], history[2]
    history[2] = dataclasses.replace(
        second, covered_rows=second.covered_rows + first.covered_rows[:1]
    )
    ids = [u for u, _txn, _at in system.integrator.numbered]
    return checks.check_exactly_once(ids, posted, history)


def cover_none(system, posted: int) -> list[str]:
    history = list(system.history)
    state = next(index for index in range(1, len(history)) if history[index].covered_rows)
    history[state] = dataclasses.replace(
        history[state], covered_rows=history[state].covered_rows[1:]
    )
    ids = [u for u, _txn, _at in system.integrator.numbered]
    return checks.check_exactly_once(ids, posted, history)


def mutate_a_state(system) -> list[str]:
    history = system.history
    for state in history[len(history) // 2:-1]:
        name = next((n for n in sorted(state.views) if len(state.views[n])), None)
        if name is not None:
            relation = state.views[name]
            relation.delete(next(iter(relation)))
            report = system.check_mvc()
            return checks.check_mvc_report(report, system.expected_level())
    raise AssertionError("no historical state holds a row to mutate")


def commit_before_source(system) -> list[str]:
    history = list(system.history)
    state = history[1]
    committed = {u: at for u, _txn, at in system.integrator.numbered}
    history[1] = dataclasses.replace(
        state, time=committed[state.covered_rows[0]] - 1.0
    )
    return checks.check_staleness(checks.staleness(system.integrator.numbered, history))


def main() -> int:
    problems: list[str] = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            problems.append(label)

    for name in DES_WORKLOADS:
        workload, system, result, definitions, expected = clean_run(name)
        expect(f"{name}: clean run passes every check ({result.failures})",
               not result.failures and result.failed == 0)
        expect(f"{name}: dropped view row fails convergence",
               bool(drop_a_row(system, definitions, expected)))
        expect(f"{name}: update covered twice fails exactly-once",
               bool(cover_twice(system, result.posted)))
        expect(f"{name}: update covered by no commit fails exactly-once",
               bool(cover_none(system, result.posted)))
        expect(f"{name}: commit before its source commit fails staleness",
               bool(commit_before_source(system)))
        expect(f"{name}: mutated historical state fails check_mvc",
               bool(mutate_a_state(system)))
        untraced = system.sim.trace.digest()
        system.close()

        _, traced_system, _, _, _ = clean_run(name, Tracer())
        traced = traced_system.sim.trace.digest()
        traced_system.close()
        expect(f"{name}: traced digest {traced[:12]} == untraced {untraced[:12]}",
               traced == untraced)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    expect("BENCHMARK.json workloads match workloads.py",
           [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS))
    expect("BENCHMARK.json per-layer metrics match run.py",
           {m["name"]: m["unit"] for m in declared["per_layer"]} == run.LAYER_UNITS)

    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
