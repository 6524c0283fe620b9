"""Comparison heuristics: deterministic FCFS and stochastic random choice.

Both book acts independently with no overlap, incompatibility or travel
checking; their constraint failures are the point of the comparison.
"""

from __future__ import annotations

import random

from .ga import SearchSpace, decode, uniform_genes
from .model import Schedule


def fcfs_schedule(space: SearchSpace) -> Schedule:
    """Greedy baseline: each act takes its earliest candidate still unclaimed.

    Acts are served in request order and a slot id is never booked twice
    within one request; ties on start time fall to the lower slot id because
    blocks are sorted that way.  Acts with no remaining candidate stay
    unassigned.
    """
    taken: set[str] = set()
    assignments = []
    for act, block in enumerate(space.per_act_slots):
        for slot in block:
            if slot.id not in taken:
                taken.add(slot.id)
                assignments.append((act, slot))
                break
    return Schedule(assignments=tuple(assignments))


def random_schedule(space: SearchSpace, rng: random.Random) -> Schedule:
    """Control baseline: one uniform draw per act, exactly like unordered GA init."""
    return decode(uniform_genes(space, rng), space)
