"""Evolutionary engine: encoding, both init strategies, operators, generation loop.

An individual is conceptually a concatenation of one-hot blocks, one block
per requested act, each selecting exactly one candidate slot.  Internally a
block is stored as the selected position within the act's candidate list,
never empty, which makes the one-hot property hold by construction.
Crossover cuts only at block boundaries for the same reason, so no repair
operator is ever needed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import getitem
from statistics import fmean
from typing import Callable, Iterable, Sequence

from .constraints import optimal_act_order, rule_checks, walk_picks
from .fitness import (
    HARD_VIOLATION_PENALTY,
    PER_TRIP_PENALTY,
    TRAVEL_GAP_PENALTY,
    WAIT_MINUTES_PER_POINT,
)
from .model import (
    MINUTES_PER_DAY,
    IncompatibilityRule,
    Schedule,
    ScheduleRequest,
    SlotTable,
    TimeSlot,
    _START,
    collector_paused,
)


# Size at which `evolve` empties its per-run fitness memo.  A default run
# (seeds 3, 7 and 42, both variants) scores 13.9k-16.3k distinct genomes;
# with this limit it makes 1.5-3.6% more evaluations than with an unbounded
# memo, and its tracemalloc peak is 0.6-1.2 MB lower (about 1.1 against 2.1 MB).
MEMO_LIMIT = 8192

# A genome's genes, one per act; an ``Individual`` is one.
Genes = tuple[int, ...]

# The two GA variants, by the names ``evolve`` and the bench take.
GA_ORDERED = "ga-ordered"
GA_UNORDERED = "ga-unordered"


class UnschedulableError(Exception):
    """Some act in the request has no candidate slot after filtering."""


@dataclass(frozen=True)
class SearchSpace:
    """Per-act candidate slot lists: at least one act, each non-empty and sorted by (start, id)."""

    per_act_slots: tuple[tuple[TimeSlot, ...], ...]

    def __post_init__(self) -> None:
        if not self.per_act_slots:
            raise ValueError("a search space needs at least one act")
        if not all(self.per_act_slots):
            raise ValueError("every act needs at least one candidate slot")

    @property
    def act_count(self) -> int:
        return len(self.per_act_slots)


class Individual(Genes):
    """One gene per act: the selected position in that act's candidate block.

    An individual is the tuple of its genes, built in one C call, and it
    hashes and compares equal to that tuple.  ``genes`` is the individual.
    """

    __slots__ = ()

    @property
    def genes(self) -> Genes:
        return self


@dataclass(frozen=True)
class GAConfig:
    population: int = 100
    generations: int = 200
    tournament_k: int = 7
    mutation_rate: float = 0.10

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not 1 <= self.tournament_k <= self.population:
            raise ValueError("tournament_k must be in [1, population]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass(frozen=True)
class EvolveResult:
    best: Schedule
    history: tuple[GenerationStats, ...]


def filter_search_space(
    slots: Iterable[TimeSlot], request: ScheduleRequest
) -> SearchSpace:
    """Candidate slots per act: exam match, on/after start day, preference filters.

    Each distinct exam's block is its ``SlotTable`` index tuple, sorted by
    (start, id), sliced where a bisection by start finds ``start_day``'s
    first minute; a day-0 slice is the index's own tuple.  The facility and
    practitioner filters run only when the request sets them, and only over
    that slice.  A world's table indexes every exam on the first request and
    keeps the index, so later requests never look at other exams' slots; any
    other iterable is indexed in a throwaway table.  Acts naming the same
    exam share one block.  If any act's block is empty, ``UnschedulableError``
    names every such exam and the filters the request set.
    """
    table = slots if isinstance(slots, SlotTable) else SlotTable(slots)
    facilities = request.preferred_facilities
    practitioners = request.preferred_practitioners
    earliest = request.start_day * MINUTES_PER_DAY  # a slot's day >= start_day
    blocks: dict[str, tuple[TimeSlot, ...]] = {}
    for exam in dict.fromkeys(request.acts):
        block = table.exam_slots(exam)
        block = block[bisect_left(block, earliest, key=_START) :]
        if facilities is not None:
            block = tuple([slot for slot in block if slot.facility in facilities])
        if practitioners is not None:
            block = tuple([slot for slot in block if slot.practitioner in practitioners])
        blocks[exam] = block
    empty = [exam for exam, block in blocks.items() if not block]
    if empty:
        filters = [f"start_day={request.start_day}"] if request.start_day else []
        for name, chosen in (("facilities", facilities), ("practitioners", practitioners)):
            if chosen is not None:
                filters.append(f"{name}={sorted(chosen)}")
        under = f" under {', '.join(filters)}" if filters else ""
        raise UnschedulableError(f"no candidate slots for {', '.join(empty)}{under}")
    return SearchSpace(per_act_slots=tuple(blocks[exam] for exam in request.acts))


# Every uniform integer draw in this module is ``rng.randrange(width)``
# written out.  On CPython that is ``_randbelow_with_getrandbits``: draw
# ``width.bit_length()`` bits (one bit even when ``width`` is 1) and redraw
# while the result is ``>= width``; ``randrange(1, n)`` is
# ``1 + randrange(n - 1)``.  The loops consume the same Mersenne Twister
# stream and give the same values, so runs stay bit-identical, at the cost of
# the ``getrandbits`` calls alone.  ``tests/test_ga.py`` checks both claims.
# A width of 0 would loop for ever; ``SearchSpace`` rules out an empty block
# and, for the mutation's act draw, a space without acts.


def uniform_genes(space: SearchSpace, rng: random.Random) -> Genes:
    """One independent uniform draw per act block.

    Shared by the unordered initializer and the random-choice baseline so
    the two are the same distribution by construction.  Each draw is
    ``rng.randrange(len(block))`` written out, as the note above says.
    """
    getrandbits = rng.getrandbits
    genes: list[int] = []
    for width in map(len, space.per_act_slots):
        bits = width.bit_length()
        gene = getrandbits(bits)
        while gene >= width:
            gene = getrandbits(bits)
        genes.append(gene)
    return tuple(genes)


def _ordered_genes(
    chain: Sequence[tuple[int, Sequence[tuple[int, int, int]]]], rng: random.Random
) -> Genes:
    # Walk the chain built by ``_initializer``: each link is an act and its
    # draws ``(lo, width, bits)``, indexed by the previous link's gene (the
    # first link has one draw, at index 0).  The draw is
    # ``lo + rng.randrange(width)`` written out.
    getrandbits = rng.getrandbits
    genes = [0] * len(chain)
    gene = 0
    for act, draws in chain:
        lo, width, bits = draws[gene]
        gene = getrandbits(bits)
        while gene >= width:
            gene = getrandbits(bits)
        gene += lo
        genes[act] = gene
    return tuple(genes)


def _initializer(
    space: SearchSpace, order: Sequence[int], rng: random.Random
) -> Callable[[], Genes]:
    """One genome drawn from the ordered variant's initial distribution per call.

    It walks every act along ``order``, a permutation of the acts, and
    prefers the candidates that start at or after the previous pick's end,
    falling back to the whole block when there are none.  That choice
    depends only on the previous pick, so it is tabulated here once: for
    each act, one ``(lo, width, bits)`` draw per gene of the previous act.
    """
    blocks = space.per_act_slots
    chain: list[tuple[int, list[tuple[int, int, int]]]] = []
    prev_block: Sequence[TimeSlot] = ()
    for act in order:
        block = blocks[act]
        size = len(block)
        by_lo = [(lo, size - lo, (size - lo).bit_length()) for lo in range(size)]
        if not chain:
            chain.append((act, [by_lo[0]]))
        else:
            los = (bisect_left(block, slot.end, key=_START) for slot in prev_block)
            chain.append((act, [by_lo[lo if lo < size else 0] for lo in los]))
        prev_block = block
    return partial(_ordered_genes, chain, rng)


def init_population(draw: Callable[[], Genes], size: int) -> list[Individual]:
    """The initial population: ``size`` individuals, one ``draw()`` each.

    ``draw`` is the variant's initializer: ga-unordered's ``uniform_genes``
    draws every gene independently; ga-ordered's ``_initializer`` samples
    acts along an order from ``constraints.optimal_act_order``, so each slot
    tends to start after the previous act's slot ends.
    """
    return [Individual(draw()) for _ in range(size)]


def decode(individual: Genes, space: SearchSpace) -> Schedule:
    """Map genes to slots, one per act; a bad gene raises ``ValueError`` naming its act."""
    if len(individual) != space.act_count:
        raise ValueError(
            f"individual has {len(individual)} genes for {space.act_count} acts"
        )
    assignments = []
    for act, gene in enumerate(individual):
        if not isinstance(gene, int):
            raise ValueError(f"gene {gene!r} of act {act} is not an int")
        block = space.per_act_slots[act]
        if not 0 <= gene < len(block):
            raise ValueError(f"gene {gene} out of range for act {act}")
        assignments.append((act, block[gene]))
    return Schedule(assignments=tuple(assignments))


def next_generation(
    population: Sequence[Individual],
    fitnesses: Sequence[float],
    space: SearchSpace,
    config: GAConfig,
    rng: random.Random,
) -> list[Individual]:
    """Breed ``population - 1`` children in pairs, then append the elite.

    Each pair is bred in this order, drawing from ``rng``:

    - two parents, each the fittest of ``tournament_k`` uniform draws with
      replacement, fitness ties going to the lowest population index;
    - one single-point crossover cut at an act-block boundary, so every
      block stays one-hot; with fewer than two acts there is no interior
      boundary and the parents pass through without a draw;
    - per child, with probability ``mutation_rate``, a redraw of one
      uniformly chosen act's gene.

    When ``population - 1`` is odd the last pair's second child is bred,
    its draws included, and dropped.
    """
    n = len(population)
    if not n:
        raise ValueError("cannot select from an empty population")
    getrandbits = rng.getrandbits
    draw_unit = rng.random
    bits = n.bit_length()
    rest = range(config.tournament_k - 1)
    rate = config.mutation_rate
    widths = [(width, width.bit_length()) for width in map(len, space.per_act_slots)]
    act_count = len(widths)
    act_bits = act_count.bit_length()
    cut_width = act_count - 1
    cut_bits = cut_width.bit_length()

    children: list[Individual] = []
    append = children.append
    for _ in range(config.population // 2):
        parents = []
        for _ in (0, 1):
            best_idx = getrandbits(bits)
            while best_idx >= n:
                best_idx = getrandbits(bits)
            best = fitnesses[best_idx]
            for _ in rest:
                idx = getrandbits(bits)
                while idx >= n:
                    idx = getrandbits(bits)
                value = fitnesses[idx]
                if value > best or (value == best and idx < best_idx):
                    best_idx, best = idx, value
            parents.append(population[best_idx])
        genes_a, genes_b = parents
        if cut_width > 0:
            cut = getrandbits(cut_bits)
            while cut >= cut_width:
                cut = getrandbits(cut_bits)
            cut += 1
            genes_a, genes_b = (
                genes_a[:cut] + genes_b[cut:], genes_b[:cut] + genes_a[cut:]
            )
        for genes in (genes_a, genes_b):
            if draw_unit() < rate:
                act = getrandbits(act_bits)
                while act >= act_count:
                    act = getrandbits(act_bits)
                width, gene_bits = widths[act]
                gene = getrandbits(gene_bits)
                while gene >= width:
                    gene = getrandbits(gene_bits)
                genes = genes[:act] + (gene,) + genes[act + 1 :]
            append(Individual(genes))
    del children[config.population - 1 :]
    children.append(population[fitnesses.index(max(fitnesses))])
    return children


def make_evaluator(
    space: SearchSpace,
    request: ScheduleRequest,
    rules: Iterable[IncompatibilityRule],
) -> Callable[[Genes], float]:
    """Fitness of a genome, equal (bit for bit) to
    ``fitness(compute_penalties(decode(genes, space), request, rules))``.

    The request is compiled once.  Each act's candidates become a tuple of
    picks ``(start, id, end, facility)`` indexed by gene, the pick
    ``constraints.schedule_counts`` builds, and ``constraints.rule_checks``
    compiles the rules over act positions.  A genome is then scored by one
    plain sort of its picks and one ``constraints.walk_picks`` call.  The
    plain sort keeps ``schedule_counts``' (start, id) order unless two
    different slots share a start and an id, which no loaded or generated
    world has.  Genomes are not checked: ``evolve`` breeds only in-range
    ones, and ``decode`` checks the rest.  A space whose act count is not
    the request's, or with a block that mixes exams (only a hand-built
    space has either), raises ``ValueError``.
    """
    blocks = space.per_act_slots
    if len(blocks) != len(request.acts):
        raise ValueError(f"space has {len(blocks)} acts for {len(request.acts)} requested")
    if any(len({slot.exam for slot in block}) > 1 for block in blocks):
        raise ValueError("every candidate of an act must be of one exam")

    tables = [
        tuple([(slot.start, slot.id, slot.end, slot.facility) for slot in block])
        for block in blocks
    ]
    # An act's position is its index.
    checks = rule_checks(rules, range(len(blocks)), [block[0].exam for block in blocks])
    start_day = request.start_day

    def evaluate(genes: Genes) -> float:
        if checks:
            by_act = list(map(getitem, tables, genes))
            picks = sorted(by_act)
        else:  # ``walk_picks`` reads its ``by_position`` only through the checks
            picks = by_act = sorted(map(getitem, tables, genes))

        overlaps, breaches, trips, transfers, wait = walk_picks(picks, checks, by_act)
        lead = picks[0][0] // MINUTES_PER_DAY - start_day

        # PenaltyBreakdown.total()'s order, less its missing-slot term (0): the float matches.
        total = (
            HARD_VIOLATION_PENALTY * (overlaps + breaches)
            + PER_TRIP_PENALTY * trips
            + TRAVEL_GAP_PENALTY * transfers
            + wait / WAIT_MINUTES_PER_POINT
            + (lead if lead > 0 else 0)
        )
        return 1.0 / (1.0 + total)

    return evaluate


def _replace_duplicates(
    children: list[Individual], draw: Callable[[], Genes]
) -> None:
    """Redraw, once, each child whose genome is already in the generation.

    The elite (last) is kept; earlier children are checked in order against
    it and each other, and a repeat is replaced by one fresh ``draw()``.
    """
    seen = {children[-1]}
    add = seen.add
    for i in range(len(children) - 1):
        child = children[i]
        if child in seen:
            child = children[i] = Individual(draw())
        add(child)


def _memoised(
    space: SearchSpace, evaluate: Callable[[Individual], float]
) -> tuple[
    Callable[[Sequence[Individual]], list[float]],
    Callable[[Genes, float], tuple[Genes, float]],
]:
    """``score(population)`` and ``polish(genes, value)``, sharing one fitness memo.

    The memo maps a genome, an individual or its equal gene tuple, to
    ``evaluate``'s fitness.  A miss empties it if it holds ``MEMO_LIMIT``
    genomes, then inserts the genome's fitness.  ``score`` returns each
    individual's fitness in order, evaluating the individual itself on a miss.

    ``polish`` is a first-improvement one-gene hill climb from ``genes``
    (fitness ``value``).  Acts are scanned in order and each act's
    candidates by position; any strictly better one-gene neighbour is taken
    at once.  It stops after a full pass finds none, so the result is a
    local optimum under one-gene moves.
    """
    sizes = [len(block) for block in space.per_act_slots]
    memo: dict[Genes, float] = {}
    get = memo.get

    def score(population: Sequence[Individual]) -> list[float]:
        values = []
        append = values.append
        for individual in population:
            value = get(individual)
            if value is None:
                if len(memo) >= MEMO_LIMIT:
                    memo.clear()
                value = memo[individual] = evaluate(individual)
            append(value)
        return values

    def polish(genes: Genes, value: float) -> tuple[Genes, float]:
        improved = True
        while improved:
            improved = False
            for act, size in enumerate(sizes):
                head, tail = genes[:act], genes[act + 1 :]
                for gene in range(size):
                    if gene == genes[act]:
                        continue
                    candidate = head + (gene,) + tail
                    candidate_value = get(candidate)
                    if candidate_value is None:
                        if len(memo) >= MEMO_LIMIT:
                            memo.clear()
                        # An evaluator may read ``.genes``: hand it an individual.
                        candidate_value = memo[candidate] = evaluate(Individual(candidate))
                    if candidate_value > value:
                        genes, value, improved = candidate, candidate_value, True
        return genes, value

    return score, polish


@collector_paused()
def evolve(
    space: SearchSpace,
    request: ScheduleRequest,
    rules: Iterable[IncompatibilityRule],
    config: GAConfig,
    algorithm: str,
    seed: int,
) -> EvolveResult:
    """Run ``algorithm`` (``GA_ORDERED`` or ``GA_UNORDERED``) with ``seed``;
    return the best schedule plus telemetry.

    Each iteration scores the population and records its stats, so
    ``history[0]`` describes the initial population.  Then, unless this is
    the last generation:

    - after the history row is recorded, the generation's best genome is
      polished by a first-improvement one-gene hill climb (``_memoised``)
      and replaces that best, so the polished genome is the next
      generation's elite; a genome a polish returned is a local optimum,
      which polishing would return unchanged, so it is never polished again;
    - ``next_generation`` breeds the next population from this one;
    - each bred child whose genome repeats the elite or an earlier child is
      redrawn once from the variant's initializer (``_replace_duplicates``),
      so copies of one genome cannot fill the population.

    Elitism carries the best genome forward, so recorded best fitness never
    decreases and the last generation's best, which is returned, is the best
    seen.  Fitness is memoised per run by genome, up to ``MEMO_LIMIT``
    genomes, and every random draw comes from one ``random.Random(seed)``,
    so a run is deterministic.  Any other ``algorithm`` raises ``ValueError``.
    The cyclic collector stays paused (``model.collector_paused``) until the memo is freed.
    """
    rules = tuple(rules)
    rng = random.Random(seed)
    if algorithm == GA_ORDERED:
        draw = _initializer(space, optimal_act_order(request.acts, rules), rng)
    elif algorithm == GA_UNORDERED:
        draw = partial(uniform_genes, space, rng)
    else:
        raise ValueError(f"unknown GA algorithm {algorithm!r}")
    population = init_population(draw, config.population)
    evaluate = make_evaluator(space, request, rules)

    score, polish = _memoised(space, evaluate)

    history: list[GenerationStats] = []
    polished: set[Genes] = set()  # every genome ``polish`` has returned
    fitnesses = score(population)
    best_idx = fitnesses.index(max(fitnesses))
    for generation in range(config.generations):
        history.append(
            GenerationStats(
                generation=generation,
                best_fitness=fitnesses[best_idx],
                mean_fitness=fmean(fitnesses),
            )
        )
        if generation + 1 == config.generations:
            break
        best = population[best_idx]
        if best not in polished:
            genes, fitnesses[best_idx] = polish(best, fitnesses[best_idx])
            polished.add(genes)
            population[best_idx] = Individual(genes)
        population = next_generation(population, fitnesses, space, config, rng)
        _replace_duplicates(population, draw)
        fitnesses = score(population)
        best_idx = fitnesses.index(max(fitnesses))

    return EvolveResult(
        best=decode(population[best_idx], space), history=tuple(history)
    )
