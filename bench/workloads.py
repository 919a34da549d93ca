"""The benchmark's workloads: the horocount commands of one round.

A seed picks fields from fixed pools and the points of each cutoff ladder
below its top.  Within a pool the tops are set so that every field costs
about the same, and a count profile is computed once up to the top cutoff, so
the seed changes which answers are checked far more than how long they take.
The largest resident set of a round comes from the zeta series of its
largest-discriminant pool (h = 3 in census, h = 2 in packing), whose fields
share one series length, so the peak does not depend on the seed either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    command: str
    field: str | int  # "rational" or a squarefree d
    cutoffs: tuple
    s: float | None = None
    method: str | None = None

    def argv(self, output: str) -> list[str]:
        args = [self.command, "--field", str(self.field),
                "--cutoffs", ",".join(str(c) for c in self.cutoffs)]
        if self.s is not None:
            args += ["--s", str(self.s)]
        if self.method is not None:
            args += ["--method", self.method]
        return args + ["--output", output]

    def __str__(self) -> str:
        return " ".join(self.argv("-")[:-2])


# The warm-up command runs once per run, untimed and unchecked.
WARMUP = Command("count", 1, (100,), method="both")

# census pools: field -> top count cutoff (the count profile cost is set by it)
# and depth cutoffs t (each t is its own phi evaluation at e^t).
CENSUS_H1 = {2: (1050, (5.9, 6.9)), 7: (920, (5.9, 6.9)),
             11: (1150, (6.1, 7.1)), 19: (1600, (6.7, 7.7))}
CENSUS_H2 = {5: (2150, (6.7, 7.7)), 6: (2450, (6.8, 7.8)), 10: (2750, (6.9, 7.9))}
CENSUS_H3 = {59: 3000, 83: 3300, 107: 3600, 139: 3900}
CENSUS_SQUARE_TOP = 1500  # d = 1 and d = 3, the fields with extra units
RATIONAL_DEPTHS = (12.0, 16.0, 20.0, 23.0)  # N(q) up to e^11.5 = 98715
# Fails today (numpy.int64 in the JSON); fixed inputs, so it fails in every round.
RATIONAL_MOBIUS = Command("count", "rational", (1000, 2000, 3000), method="both")

# series: s pools strictly below both thresholds, between them, above both.
SERIES_S = {
    "rational": ((0.30, 0.35, 0.40), (0.70, 0.75, 0.80), (1.3, 1.5, 1.7)),
    1: ((0.6, 0.7, 0.8), (1.3, 1.5, 1.7), (2.3, 2.5, 2.7)),
}
SERIES_CUTOFFS = {
    "rational": ((500, 1000, 2000),) * 3,
    1: ((100, 200, 400), (200, 400, 800), (100, 200, 400)),
}

# packing.  verify's own packing check (N(q) <= 30, O(n^2) pairs) dominates its
# cost, so the h = 2 pool pairs fields with phi(30) = 43 and 46 and one zeta
# series length; d = 5, 6, 10 (phi(30) = 211, 163, 135) would differ by 2.4x.
HOROBALL_BOUNDS = {"rational": 36, 1: 34}
VERIFY_BOUND = 100
PACKING_H2 = (58, 123)


def _ladder(rng: random.Random, top: int) -> tuple:
    """Two seed-chosen cutoffs below top, then top."""
    return tuple(sorted(rng.sample(range(top // 8, top), 2))) + (top,)


def census(rng: random.Random) -> list[Command]:
    h1 = rng.choice(sorted(CENSUS_H1))
    h2 = rng.choice(sorted(CENSUS_H2))
    h3 = rng.choice(sorted(CENSUS_H3))
    return [
        RATIONAL_MOBIUS,
        Command("count", 1, _ladder(rng, CENSUS_SQUARE_TOP), method="both"),
        Command("count", 3, _ladder(rng, CENSUS_SQUARE_TOP), method="both"),
        Command("count", h1, _ladder(rng, CENSUS_H1[h1][0]), method="both"),
        Command("count", h2, _ladder(rng, CENSUS_H2[h2][0])),
        Command("count", h3, _ladder(rng, CENSUS_H3[h3])),
        Command("depths", "rational", RATIONAL_DEPTHS),
        Command("depths", h1, CENSUS_H1[h1][1]),
        Command("depths", h2, CENSUS_H2[h2][1]),
    ]


def series(rng: random.Random) -> list[Command]:
    return [
        Command("poincare", field, cuts, s=rng.choice(pool))
        for field in ("rational", 1)
        for pool, cuts in zip(SERIES_S[field], SERIES_CUTOFFS[field])
    ]


def packing(rng: random.Random) -> list[Command]:
    return [
        Command("horoballs", "rational", (HOROBALL_BOUNDS["rational"],)),
        Command("horoballs", 1, (HOROBALL_BOUNDS[1],)),
        Command("verify", 1, (VERIFY_BOUND,)),
        Command("verify", rng.choice(PACKING_H2), (VERIFY_BOUND,)),
    ]


WORKLOADS = {"census": census, "series": series, "packing": packing}

# How closely each workload's command times follow the host's speed, as the
# speed probe of run.py measures it: a time t at probe time p is reported as
# t * (REF / p) ** e.  Interpreter start-up and pure-Python work follow the
# probe (e near 1); the large numpy bincounts of series follow it about half
# as much.  From two sets of ten runs per workload, see README.md.
ELASTICITY = {"census": 0.9, "series": 0.5, "packing": 0.9}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
