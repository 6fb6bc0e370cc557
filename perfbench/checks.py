"""Correctness checks on a finished run, and the staleness it implies.

Each check takes plain data — the warehouse history, the integrator's
numbering, the final views — and returns a list of failure messages (an
empty list means the check passed).  Keeping them free of the live system
lets ``selftest.py`` feed each one a deliberately corrupted run.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

from repro.relational.algebra import evaluate
from repro.relational.database import Database


def expected_database(tables, final: Mapping[str, Counter]) -> Database:
    """The final source state, rebuilt from the benchmark's own replay."""
    db = Database()
    for table in tables:
        rows = []
        for key, count in final[table.name].items():
            rows.extend([dict(key)] * count)
        db.create_relation(table.name, table.schema(), rows)
    return db


def check_convergence(final_views: Mapping, definitions, expected: Database) -> list[str]:
    """Each view's final warehouse contents equal its definition evaluated
    over the expected final source state."""
    failures = []
    for definition in definitions:
        want = evaluate(definition.expression, expected)
        got = final_views.get(definition.name)
        if got is None or got != want:
            size = "missing" if got is None else f"{len(got)} rows"
            failures.append(
                f"convergence: view {definition.name} holds {size}, "
                f"expected {len(want)} rows"
            )
    return failures


def check_exactly_once(numbered_ids: Sequence[int], posted: int, history) -> list[str]:
    """The integrator numbers exactly the posted transactions, and each
    number appears in exactly one commit's covered rows."""
    failures = []
    if sorted(numbered_ids) != list(range(1, posted + 1)):
        failures.append(
            f"exactly-once: integrator numbered {len(numbered_ids)} "
            f"transactions, {posted} were posted"
        )
    known = set(numbered_ids)
    seen: Counter = Counter()
    for state in history[1:]:
        seen.update(state.covered_rows)
    twice = sorted(u for u, n in seen.items() if n > 1)
    if twice:
        failures.append(f"exactly-once: updates {twice[:5]} covered by several commits")
    unknown = sorted(set(seen) - known)
    if unknown:
        failures.append(f"exactly-once: commits cover unknown updates {unknown[:5]}")
    never = sorted(known - set(seen))
    if never:
        failures.append(f"exactly-once: updates {never[:5]} covered by no commit")
    return failures


def uncovered(numbered_ids: Sequence[int], history) -> int:
    """Posted updates no warehouse commit covers when the run ends."""
    covered = set()
    for state in history[1:]:
        covered.update(state.covered_rows)
    return sum(1 for u in numbered_ids if u not in covered)


def staleness(numbered, history) -> dict[int, float]:
    """Per update: first covering warehouse commit time minus its source
    commit time (virtual time under des, wall seconds under procs)."""
    committed = {update_id: at for update_id, _txn, at in numbered}
    visible: dict[int, float] = {}
    for state in history[1:]:
        for update_id in state.covered_rows:
            visible.setdefault(update_id, state.time)
    return {
        u: visible[u] - committed[u] for u in visible if u in committed
    }


def check_staleness(lags: Mapping[int, float]) -> list[str]:
    negative = sorted(u for u, lag in lags.items() if lag < 0)
    if negative:
        return [
            f"staleness: updates {negative[:5]} reached the warehouse before "
            f"their source commit"
        ]
    return []


def check_mvc_report(report, level: str) -> list[str]:
    if report.ok:
        return []
    return [f"mvc: check_mvc at level {level} failed: {report.reason}"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]
