"""The town-poll workload of Example 4.6.

Schema: Likes(p̲ t̲) (all-key: a person may like many towns),
Born(p̲, t), Lives(p̲, t) (simple-key: one town each — inconsistency
means conflicting records), Mayor(t̲, p).
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.atoms import RelationSchema
from ..db.database import Database

POLL_SCHEMAS = (
    RelationSchema("Likes", 2, 2),
    RelationSchema("Born", 2, 1),
    RelationSchema("Lives", 2, 1),
    RelationSchema("Mayor", 2, 1),
)


def empty_poll_database() -> Database:
    """A database with the Example 4.6 schema and no facts."""
    return Database(POLL_SCHEMAS)


def random_poll_database(
    n_people: int = 10,
    n_towns: int = 5,
    likes_per_person: int = 2,
    conflict_rate: float = 0.4,
    rng: Optional[random.Random] = None,
) -> Database:
    """A random poll database with controlled inconsistency.

    Every person has Born and Lives records; with probability
    *conflict_rate* a second conflicting record is added (violating the
    primary key).  Every town has one or two Mayor records likewise.
    """
    rng = rng or random.Random()
    people = [f"p{i}" for i in range(n_people)]
    towns = [f"t{j}" for j in range(n_towns)]
    db = empty_poll_database()
    for p in people:
        for _ in range(rng.randint(0, likes_per_person)):
            db.add("Likes", (p, rng.choice(towns)))
        for relation in ("Born", "Lives"):
            db.add(relation, (p, rng.choice(towns)))
            if rng.random() < conflict_rate:
                db.add(relation, (p, rng.choice(towns)))
    for t in towns:
        db.add("Mayor", (t, rng.choice(people)))
        if rng.random() < conflict_rate:
            db.add("Mayor", (t, rng.choice(people)))
    return db


def adversarial_poll_database(
    n_people: int = 1000,
    n_towns: int = 50,
    certain_fraction: float = 0.05,
    rng: Optional[random.Random] = None,
) -> Database:
    """A poll database where most candidates are *not* certain answers.

    The interesting regime for consistent query answering: for
    ``q_A = Lives(p|t), ¬Born(p|t), ¬Likes(p,t)``, a person with a
    conflicting Lives block is a certain answer only when *every*
    block town survives both negations.  Here each person gets a
    two-town Lives block; for all but a ``certain_fraction`` of
    people, ``Likes`` facts cover both block towns (defeating every
    repair's witness), while certain people like only towns outside
    their block.  Answer counts therefore stay small and controlled
    while the fact count — and the per-relation index mass the
    monolithic executor must grind through — grows linearly.

    Facts are bulk-loaded per relation via ``add_all``.
    """
    rng = rng or random.Random()
    if n_towns < 3:
        raise ValueError("adversarial_poll_database needs n_towns >= 3")
    towns = [f"t{j}" for j in range(n_towns)]
    lives: list = []
    born: list = []
    likes: list = []
    mayor: list = []
    for i in range(n_people):
        p = f"p{i}"
        t1, t2 = rng.sample(towns, 2)
        lives.append((p, t1))
        lives.append((p, t2))
        certain = rng.random() < certain_fraction
        if certain:
            # Born and Likes avoid the block towns entirely.
            outside = [t for t in (rng.choice(towns) for _ in range(8))
                       if t not in (t1, t2)]
            born.append((p, outside[0] if outside else towns[0]))
            for t in outside[1:3]:
                likes.append((p, t))
        else:
            born.append((p, rng.choice(towns)))
            likes.append((p, t1))
            likes.append((p, t2))
    for t in towns:
        mayor.append((t, f"p{rng.randrange(n_people)}"))
    db = empty_poll_database()
    db.add_all("Lives", lives)
    db.add_all("Born", born)
    db.add_all("Likes", likes)
    db.add_all("Mayor", mayor)
    return db


def paper_flavoured_poll_database() -> Database:
    """A small hand-written instance exercising all four queries."""
    db = empty_poll_database()
    rows = {
        "Likes": [("ann", "mons"), ("ann", "madison"), ("bea", "mons"),
                  ("cal", "houston")],
        "Born": [("ann", "mons"), ("bea", "madison"), ("bea", "mons"),
                 ("cal", "houston")],
        "Lives": [("ann", "madison"), ("ann", "mons"), ("bea", "mons"),
                  ("cal", "madison")],
        "Mayor": [("mons", "bea"), ("madison", "ann"), ("madison", "cal"),
                  ("houston", "cal")],
    }
    for relation, facts in rows.items():
        db.add_all(relation, facts)
    return db
