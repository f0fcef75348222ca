"""Seeded inputs of the three served workloads.

Everything the daemon receives comes from here: the seed facts of the
store, the request texts each connection sends, and the write batches.
Each generator is a pure function of the workload seed, so the same
seed gives the same store, the same requests and the same batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.db.database import Database
from repro.workloads.poll import random_poll_database

#: The poll query q_a(p) of Example 4.6: people who certainly live in
#: a town they were not born in and do not like.
QA = "Lives(p | t), not Born(p | t), not Likes(p, t |)"

#: Name of the view the write-churn poller follows.
VIEW = "qa"


@dataclass(frozen=True)
class Request:
    """One read request: ``answers`` (free variables) or ``certain``."""

    shape: str
    query: str
    free: Tuple[str, ...] = ()

    @property
    def path(self) -> str:
        return "/v1/answers" if self.shape == "answers" else "/v1/certain"

    def body(self) -> Dict[str, object]:
        # Default options: real callers send none, so the daemon's
        # ``auto`` router picks the backend.
        if self.shape == "answers":
            return {"query": self.query, "free": list(self.free)}
        return {"query": self.query}


def point_query(person: str) -> str:
    """The Boolean q_a for one bound person."""
    return (f"Lives('{person}' | t), not Born('{person}' | t), "
            f"not Likes('{person}', t |)")


#: Selective answer queries, at most one row per town (or per mayor).
#: ``auto`` routes them to native SQL on a store this size, where the
#: columnar backend is several times faster.  Two-orders-of-magnitude
#: cases such as ``Likes(p, t |), not Lives(p | t)`` with free ``t``
#: (~360 ms under auto, ~1 ms columnar) are left out: one of them holds
#: the SQL mirror for most of a run and the figures stop repeating.
SELECTIVE = (
    Request("answers", "Mayor(t | p), not Lives(p | t)", ("t",)),
    Request("answers", "Mayor(t | p), not Likes(p, t |)", ("t",)),
    Request("answers", "Mayor(t | p), not Lives(p | t), not Born(p | t)",
            ("t",)),
    Request("answers", "Mayor(t | p), Lives(p | u), not Likes(p, t |)",
            ("t",)),
    Request("answers", "Mayor(t | p)", ("p",)),
)

#: Distinct point texts per selective-reads run: twice the 128 entries
#: of the daemon's engine cache and of the plan cache, so no point
#: request finds its engine or plan warm.
POINT_TEXTS = 256

#: Write-churn batch shape: facts added per batch, and how many
#: batches later each added fact is retracted again.
CHURN_ADDS = 8
CHURN_LAG = 4


@dataclass
class Workload:
    """One workload: its store, its read mix and (maybe) its writes."""

    name: str
    seed: int
    people: int
    towns: int
    db: Database
    #: Distinct read request instances per shape (``answers`` always,
    #: ``certain`` where the mix sends it).
    instances: Dict[str, List[Request]]
    #: The read requests each connection cycles through, in order
    #: (read-only workloads; write-churn drives its own two roles).
    plans: List[List[Request]]
    writes: bool
    mix: str = ""
    #: Boolean stand-in for the certain shape where the mix has none;
    #: used only by the direct layer probes of the traced run.
    probe_certain: List[Request] = field(default_factory=list)

    @property
    def connections(self) -> int:
        return len(self.plans)

    def next_read(self, conn: int, i: int) -> Request:
        """The i-th read request of connection *conn*."""
        plan = self.plans[conn]
        return plan[i % len(plan)]

    def certain_instances(self) -> List[Request]:
        return self.instances.get("certain") or self.probe_certain


def _poll(seed: int, people: int, towns: int) -> Database:
    return random_poll_database(n_people=people, n_towns=towns,
                                rng=random.Random(seed))


def wide_answers(seed: int) -> Workload:
    people, towns = 5000, 60
    qa = Request("answers", QA, ("p",))
    return Workload(
        name="wide-answers", seed=seed, people=people, towns=towns,
        db=_poll(seed, people, towns),
        instances={"answers": [qa]}, plans=[[qa], [qa]], writes=False,
        mix="2 connections repeat POST /v1/answers q_a(p)",
        probe_certain=[Request("certain", QA)],
    )


def selective_reads(seed: int) -> Workload:
    people, towns = 2500, 50
    rng = random.Random(seed ^ 0x5E1EC7)
    points = [Request("certain", point_query(f"p{i}"))
              for i in rng.sample(range(people), POINT_TEXTS)]
    half = POINT_TEXTS // 2
    plans = []
    for conn in range(2):
        # Point and answers requests alternate.  The two connections
        # walk the point texts half a lap apart, so a text comes back
        # only after every other text has been requested.
        plan = []
        for k in range(POINT_TEXTS):
            plan.append(points[(k + conn * half) % POINT_TEXTS])
            plan.append(SELECTIVE[(k + 2 * conn) % len(SELECTIVE)])
        plans.append(plan)
    return Workload(
        name="selective-reads", seed=seed, people=people, towns=towns,
        db=_poll(seed, people, towns),
        instances={"certain": points, "answers": list(SELECTIVE)},
        plans=plans, writes=False,
        mix=(f"2 connections, each alternating POST /v1/certain over "
             f"{POINT_TEXTS} distinct point queries with POST /v1/answers "
             f"over {len(SELECTIVE)} selective queries"),
    )


def write_churn(seed: int) -> Workload:
    people, towns = 800, 40
    qa = Request("answers", QA, ("p",))
    return Workload(
        name="write-churn", seed=seed, people=people, towns=towns,
        db=_poll(seed, people, towns),
        instances={"answers": [qa]}, plans=[[qa], []], writes=True,
        mix=(f"connection 1 alternates a fsynced POST /v1/facts batch "
             f"(+{CHURN_ADDS} Lives/Born facts, -{CHURN_ADDS} added "
             f"{CHURN_LAG} batches earlier) with POST /v1/answers q_a(p); "
             f"connection 2 long-polls GET /v1/views/{VIEW}/changes"),
        probe_certain=[Request("certain", QA)],
    )


WORKLOADS = {
    "wide-answers": wide_answers,
    "selective-reads": selective_reads,
    "write-churn": write_churn,
}


class ChurnBatches:
    """The deterministic write-batch sequence of a churn workload.

    Batch k adds ``CHURN_ADDS`` Lives/Born facts that conflict with a
    person's existing record (a new town under the same key) and
    retracts the facts batch ``k - CHURN_LAG`` added, so after the first
    few batches the store size stays flat however long a run lasts.
    Batches are wire-form op lists (the ``ops`` of ``POST /v1/facts``).
    """

    def __init__(self, db: Database, people: int, towns: int, seed: int):
        self._rng = random.Random(seed ^ 0xC4A11)
        self._people = people
        self._towns = towns
        self._present = {rel: set(db.facts(rel)) for rel in ("Lives", "Born")}
        self._added: List[List[Tuple[str, Tuple[str, str]]]] = []

    def next(self) -> List[Dict[str, object]]:
        ops: List[Dict[str, object]] = []
        if len(self._added) >= CHURN_LAG:
            for rel, row in self._added.pop(0):
                self._present[rel].discard(row)
                ops.append({"op": "-", "relation": rel, "row": list(row)})
        added = []
        for j in range(CHURN_ADDS):
            rel = "Lives" if j % 2 == 0 else "Born"
            row = self._fresh(rel)
            self._present[rel].add(row)
            added.append((rel, row))
            ops.append({"op": "+", "relation": rel, "row": list(row)})
        self._added.append(added)
        return ops

    def _fresh(self, rel: str) -> Tuple[str, str]:
        while True:
            row = (f"p{self._rng.randrange(self._people)}",
                   f"t{self._rng.randrange(self._towns)}")
            if row not in self._present[rel]:
                return row


def apply_batch(db: Database, ops: List[Dict[str, object]]) -> None:
    """Apply one wire-form batch to an in-process database."""
    with db.batch():
        for op in ops:
            row = tuple(op["row"])  # type: ignore[arg-type]
            if op["op"] == "+":
                db.add(op["relation"], row)  # type: ignore[arg-type]
            else:
                db.discard(op["relation"], row)  # type: ignore[arg-type]


def make(name: str, seed: int) -> Optional[Workload]:
    factory = WORKLOADS.get(name)
    return factory(seed) if factory is not None else None
