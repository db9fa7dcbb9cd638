"""The serve workloads' traffic: a pure function of the workload seed.

Each closed-loop connection owns half of a fixed pool of sessions and
visits them in seeded shuffled rounds, so every session is visited
about equally often and no two connections ever share a session (its
request order, and therefore its served bytes, is then fixed by the
schedule alone).  A visit is one HELLO followed by a few requests; each
request is a raw FETCH or a typed ``normal`` VARIATE.

The first rounds are an untimed warm-up: they create every session and
ramp its readahead to the cap, so the timed visits that follow see the
steady state (on a 2-core host the first round runs at about twice the
steady p50, the second still about 20% above it).
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Tuple

#: Sessions in the pool, split evenly across the connections.
POOL = 256
CONNECTIONS = 2
REQUESTS_PER_VISIT = 4
#: Numbers per FETCH and per VARIATE.
COUNT = 256
#: One request in this many is a VARIATE, the rest are raw FETCHes.
VARIATE_EVERY = 4
VARIATE_DIST = "normal"
VARIATE_PARAMS = {"mean": 0.0, "std": 1.0}
#: Untimed rounds over each connection's sessions before the timed ones.
WARMUP_ROUNDS = 2


class Request(NamedTuple):
    #: ``None`` for a raw FETCH, else the distribution name.
    dist: Optional[str]
    count: int


class Visit(NamedTuple):
    session: str
    requests: Tuple[Request, ...]


class Schedule(NamedTuple):
    #: Per connection: the warm-up visits, then the timed ones.
    warmup: List[List[Visit]]
    timed: List[List[Visit]]


def session_id(i: int) -> str:
    return f"bench-{i:03d}"


def schedule(seed: int, visits_per_connection: int) -> Schedule:
    """Every connection's visits, fixed by ``seed`` alone."""
    rng = random.Random(seed)
    warmup, timed = [], []
    for c in range(CONNECTIONS):
        mine = [session_id(i) for i in range(c, POOL, CONNECTIONS)]
        visits: List[Visit] = []
        order: List[str] = []
        total = WARMUP_ROUNDS * len(mine) + visits_per_connection
        while len(visits) < total:
            if not order:
                order = mine[:]
                rng.shuffle(order)
            reqs = tuple(
                Request(
                    VARIATE_DIST if rng.randrange(VARIATE_EVERY) == 0
                    else None,
                    COUNT,
                )
                for _ in range(REQUESTS_PER_VISIT)
            )
            visits.append(Visit(order.pop(), reqs))
        warmup.append(visits[:WARMUP_ROUNDS * len(mine)])
        timed.append(visits[WARMUP_ROUNDS * len(mine):])
    return Schedule(warmup, timed)
