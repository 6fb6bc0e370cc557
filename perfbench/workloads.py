"""The benchmark's workloads: world, view suite, configuration and stream.

Every workload is built here, from the seed alone: the initial rows of
each base relation, the view definitions, the ``SystemConfig`` and the
timed update stream.  The program only ever sees the generated inputs.

Row generation is the benchmark's own (it does not use
``repro.workloads``), so a change to the program's generators cannot
change what the benchmark measures.  ``make_inputs`` also replays the
stream over the initial rows, which gives the convergence check a final
source state that does not come from the system under test.

``scale`` shrinks a workload for the self-test; the measured runs
always use ``scale=1``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.relational.parser import parse_view
from repro.relational.schema import Attribute, AttrType, Schema
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld
from repro.system.config import SystemConfig

Row = dict  # attribute name -> value
RowMaker = Callable[[random.Random, int], Row]


@dataclass(frozen=True)
class Table:
    """One base relation: its typed attributes, owner and row generator."""

    name: str
    attrs: tuple[tuple[str, AttrType], ...]
    owner: str
    make_row: RowMaker
    preload: int = 0  # rows in the initial state
    weight: float = 1.0  # share of the update stream touching this table

    def schema(self) -> Schema:
        return Schema([Attribute(name, kind) for name, kind in self.attrs])


@dataclass(frozen=True)
class Workload:
    """Everything but the seed: tables, views, configuration, stream shape."""

    name: str
    tables: tuple[Table, ...]
    views: tuple[str, ...]
    config: dict
    updates: int
    rate: float  # updates per unit of (virtual) time
    mix: tuple[float, float, float] = (0.6, 0.2, 0.2)  # insert/delete/modify
    level: str = "complete"  # the MVC level the configuration promises
    poisson: bool = False  # exponential gaps instead of even spacing

    @property
    def runtime(self) -> str:
        return self.config.get("runtime", "des")


@dataclass
class Inputs:
    """The seeded inputs of one run."""

    initial: dict[str, list[Row]]
    stream: list[tuple[float, SourceTransaction]]
    final: dict[str, Counter]


# ---------------------------------------------------------------------------
# row generators
# ---------------------------------------------------------------------------

def _kv(value_name: str, keys: int, values: int) -> RowMaker:
    def make(rng: random.Random, _serial: int) -> Row:
        return {"k": rng.randrange(keys), value_name: rng.randrange(values)}

    return make


def _sale(products: int, stores: int) -> RowMaker:
    def make(rng: random.Random, serial: int) -> Row:
        return {
            "sale": serial,
            "prod": rng.randrange(products),
            "store": rng.randrange(stores),
            "qty": rng.randrange(1, 13),
        }

    return make


def _fixed(rows: list[Row]) -> RowMaker:
    def make(_rng: random.Random, serial: int) -> Row:
        return dict(rows[serial % len(rows)])

    return make


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

INT = AttrType.INT
STR = AttrType.STR


def clustered(clusters: int, preload: int, keys: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    """``clusters`` relation-disjoint pairs R_i(k,v), S_i(k,w), three views each."""
    tables: list[Table] = []
    views: list[str] = []
    for i in range(clusters):
        owner = f"src_{i}"
        tables.append(Table(f"R_{i}", (("k", INT), ("v", INT)), owner,
                            _kv("v", keys, 10), preload))
        tables.append(Table(f"S_{i}", (("k", INT), ("w", INT)), owner,
                            _kv("w", keys, 10), preload))
        views.append(f"J_{i} = SELECT * FROM R_{i} JOIN S_{i}")
        views.append(f"C_{i} = SELECT * FROM R_{i}")
        views.append(f"H_{i} = SELECT * FROM S_{i} WHERE w >= 5")
    return tuple(tables), tuple(views)


def star(sales: int, products: int, stores: int) -> tuple[tuple[Table, ...], tuple[str, ...]]:
    """The Sales fact with Product/Store dimensions and six views."""
    product_rows = [
        {"prod": i, "category": f"c{i % 3}", "price": 5 + i % 7}
        for i in range(products)
    ]
    store_rows = [{"store": i, "region": f"r{i % 2}"} for i in range(stores)]
    tables = (
        Table("Sales", (("sale", INT), ("prod", INT), ("store", INT), ("qty", INT)),
              "pos", _sale(products, stores), sales),
        Table("Product", (("prod", INT), ("category", STR), ("price", INT)),
              "catalog", _fixed(product_rows), products, weight=0.0),
        Table("Store", (("store", INT), ("region", STR)),
              "ops", _fixed(store_rows), stores, weight=0.0),
    )
    views = (
        "SaleDetail = SELECT * FROM Sales JOIN Product",
        "RegionalSales = SELECT sale, prod, store, qty, region FROM Sales JOIN Store",
        "BigTickets = SELECT sale, prod, qty FROM Sales JOIN Product WHERE qty >= 8",
        "CheapCatalog = SELECT * FROM Product WHERE price <= 7",
        "RegionTotals = SELECT region, count(*) AS n, sum(qty) AS total "
        "FROM Sales JOIN Store GROUP BY region",
        "CategoryVolume = SELECT category, sum(qty) AS volume "
        "FROM Sales JOIN Product GROUP BY category",
    )
    return tables, views


def fleet_burst(scale: float = 1.0) -> Workload:
    # 4 updates per unit of virtual time against a warehouse that commits
    # about one per unit: the backlog, and with it staleness, grows all run.
    tables, views = clustered(max(2, round(120 * scale)), preload=0, keys=10)
    return Workload(
        name="fleet-burst",
        tables=tables,
        views=views,
        config=dict(
            manager_kind="complete",
            merge_algorithm="spa",
            merge_groups=8,
            merge_router="hash",
            record_history=True,
        ),
        updates=max(20, round(1000 * scale)),
        rate=4.0,
    )


def star_queryback(scale: float = 1.0) -> Workload:
    # At 0.2 updates per unit the strong managers keep up and almost every
    # update commits on its own; at 0.5 they fall behind and PA's batching
    # made staleness and check_mvc's cost vary 2-3x from seed to seed.
    tables, views = star(sales=max(20, round(200 * scale)), products=24, stores=8)
    return Workload(
        name="star-queryback",
        tables=tables,
        views=views,
        config=dict(
            manager_kind="strong",
            manager_mode="snapshot",
            merge_algorithm="pa",
        ),
        updates=max(20, round(300 * scale)),
        rate=0.2,
        poisson=True,
        level="strong",
    )


def procs_fleet(scale: float = 1.0) -> Workload:
    # check_mvc re-evaluates every view at every warehouse state, so views
    # and rows are kept small; modify-only updates keep relation sizes,
    # and with them its cost, the same for every seed.
    tables, views = clustered(max(2, round(12 * scale)), preload=10, keys=5)
    return Workload(
        name="procs-fleet",
        tables=tables,
        views=views,
        config=dict(
            manager_kind="complete",
            merge_algorithm="spa",
            merge_groups=8,
            merge_router="hash",
            runtime="procs",
            workers=1,
        ),
        updates=max(20, round(1500 * scale)),
        rate=40.0,
        mix=(0.0, 0.0, 1.0),
    )


WORKLOADS: dict[str, Callable[[float], Workload]] = {
    "fleet-burst": fleet_burst,
    "star-queryback": star_queryback,
    "procs-fleet": procs_fleet,
}


# ---------------------------------------------------------------------------
# inputs from a seed
# ---------------------------------------------------------------------------

def _key(row: Row) -> tuple:
    return tuple(sorted(row.items()))


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The initial rows and the timed stream, both drawn from ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    serial = 0
    initial: dict[str, list[Row]] = {}
    for table in workload.tables:
        rows = []
        for _ in range(table.preload):
            rows.append(table.make_row(rng, serial))
            serial += 1
        initial[table.name] = rows
    live = {name: list(rows) for name, rows in initial.items()}
    final = {name: Counter(_key(r) for r in rows) for name, rows in initial.items()}

    movable = [t for t in workload.tables if t.weight > 0]
    weights = [t.weight for t in movable]
    stream: list[tuple[float, SourceTransaction]] = []
    at = 0.0
    for _ in range(workload.updates):
        at += rng.expovariate(workload.rate) if workload.poisson else 1.0 / workload.rate
        table = rng.choices(movable, weights)[0]
        mirror = live[table.name]
        kind = rng.choices(("insert", "delete", "modify"), workload.mix)[0]
        if kind != "insert" and not mirror:
            kind = "insert"
        if kind == "insert":
            row = table.make_row(rng, serial)
            serial += 1
            mirror.append(row)
            final[table.name][_key(row)] += 1
            update = Update.insert(table.name, row)
        else:
            victim = mirror.pop(rng.randrange(len(mirror)))
            final[table.name][_key(victim)] -= 1
            if kind == "delete":
                update = Update.delete(table.name, victim)
            else:
                row = table.make_row(rng, serial)
                serial += 1
                mirror.append(row)
                final[table.name][_key(row)] += 1
                update = Update.modify(table.name, victim, row)
        stream.append((at, SourceTransaction.single(table.owner, update)))
    for counts in final.values():
        for key in [k for k, n in counts.items() if n == 0]:
            del counts[key]
    return Inputs(initial=initial, stream=stream, final=final)


def build_world(workload: Workload, inputs: Inputs) -> SourceWorld:
    world = SourceWorld()
    for table in workload.tables:
        world.create_relation(table.name, table.schema(), table.owner,
                              inputs.initial[table.name])
    return world


def definitions(workload: Workload) -> list:
    return [parse_view(text) for text in workload.views]


def system_config(workload: Workload) -> SystemConfig:
    return SystemConfig(**workload.config)
