"""Reference clock: times expressed in units of a fixed pure-Python kernel.

On a shared machine the same medsched solve takes anywhere from 0.42 to 0.75 s
of wall time, and CPU time moves with it: neighbours slow the core itself,
for stretches of several seconds.  Raw wall times of 30-second runs then
spread by ~35% between runs, far wider than any useful regression bound.

The benchmark therefore times this kernel right before and after each
operation and divides the operation's wall time by it.  The kernel is
interpreter-bound Python of the same kind as medsched's hot loops (frozen
dataclass attribute access, small tuple sorts, set and dict churn) and
shares no code with the package, so no change to medsched moves it.  One
*reference second* (unit ``ref_s``) is the wall time of ``REF_ROUNDS`` kernel
rounds, about one second on a 2.1 GHz core with nothing running beside it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

ROUNDS = 60  # kernel rounds per measurement: about 12-19 ms
REF_ROUNDS = 4000  # kernel rounds in one reference second


@dataclass(frozen=True)
class _Item:
    start: int
    length: int
    tag: str

    @property
    def end(self) -> int:
        return self.start + self.length


_rng = random.Random(7)
_ITEMS = tuple(
    _Item(_rng.randrange(100_000), _rng.randrange(1, 90), f"t{_rng.randrange(50)}")
    for _ in range(400)
)


def _kernel(rounds: int) -> int:
    total = 0
    for r in range(rounds):
        rng = random.Random(r)
        for _ in range(40):
            pick = tuple(_ITEMS[rng.randrange(400)] for _ in range(5))
            ordered = sorted(pick, key=lambda item: (item.start, item.tag))
            for a, b in zip(ordered, ordered[1:]):
                gap = b.start - a.end
                if gap > 0:
                    total += gap
                if a.tag == b.tag:
                    total += 1
            total += len({item.tag for item in pick})
    return total


def ref_second() -> float:
    """Wall seconds one reference second takes right now."""
    start = time.perf_counter()
    _kernel(ROUNDS)
    return (time.perf_counter() - start) * REF_ROUNDS / ROUNDS
