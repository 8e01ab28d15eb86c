"""The generational evolution engine.

Drives the classic evaluate -> select -> mate -> mutate loop through a
:class:`~repro.ga.toolbox.Toolbox`, with elitism and optional gene masks
(for subset tuning).  The engine is deliberately DEAP-shaped: the tuning
pipeline owns the outer loop (it consults the early stopper and the
subset picker between generations), so the engine exposes a single
:meth:`step` advancing one generation, plus a convenience :meth:`run`.

Toolbox contract (all rng arguments are numpy Generators):

* ``generate(n, rng) -> list[Individual]`` -- initial population.
* ``evaluate(individual) -> float`` -- fitness, higher is better.
* ``select(population, rng) -> (Individual, Individual)`` -- two parents.
* ``mate(a, b, rng) -> (Individual, Individual)`` -- two offspring.
* ``mutate(individual, rng) -> Individual``.
* ``evaluate_batch(individuals) -> sequence[float]`` -- optional; when
  registered, a generation's unevaluated individuals are dispatched as
  one batch (in population order) instead of one ``evaluate`` call each.
* ``repair(individual) -> Individual`` -- optional; a deterministic,
  RNG-free projection applied to every bred individual (after mask
  pinning), so variation can never emit a constraint-violating genome.
  Repair may adjust genes outside the active mask when a constraint
  couples a masked gene to a pinned one -- validity wins over pinning.

Only individuals with no fitness are (re)evaluated, matching DEAP's
invalid-fitness convention -- elites carry their fitness across
generations for free.  Duplicate genomes within a generation are each
evaluated (a stochastic evaluator must be consulted once per
individual); :attr:`GenerationStats.distinct_genomes` counts them, and
the stack tuners deduplicate at the trace level inside their batch
evaluator instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .individual import Individual
from .operators import apply_mask
from .selection import elites
from .toolbox import Toolbox

__all__ = ["GenerationStats", "EvolutionEngine"]


@dataclass(frozen=True)
class GenerationStats:
    """Summary of one generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best: Individual
    #: Individuals assigned a fitness in this generation.
    evaluations: int
    #: Distinct genomes among them (evaluations - distinct = duplicates).
    distinct_genomes: int = 0


class EvolutionEngine:
    """Generational GA with elitism and optional subset masks.

    Parameters
    ----------
    toolbox:
        Operator registry (see module docstring for the contract).
    population_size:
        Individuals per generation (must fit at least the elites).
    n_elites:
        Individuals copied unchanged into the next generation.
    rng:
        Random source; pass a seeded generator for reproducibility.
    """

    def __init__(
        self,
        toolbox: Toolbox,
        population_size: int,
        n_elites: int = 1,
        rng: np.random.Generator | None = None,
    ):
        toolbox.validate()
        if population_size < 3:
            raise ValueError("population_size must be >= 3 (tournament needs 3)")
        if not 0 <= n_elites < population_size:
            raise ValueError("n_elites must be in [0, population_size)")
        self.toolbox = toolbox
        self.population_size = population_size
        self.n_elites = n_elites
        self.rng = rng if rng is not None else np.random.default_rng()
        self.population: list[Individual] = []
        self.history: list[GenerationStats] = []
        self._generation = 0
        self._mask: np.ndarray | None = None

    # -- subset masking ---------------------------------------------------------

    def set_mask(self, mask: Sequence[bool] | np.ndarray | None) -> None:
        """Restrict variation to the masked genome positions.  Unmasked
        genes of every offspring are pinned to the current best
        individual's values.  ``None`` clears the restriction."""
        if mask is None:
            self._mask = None
            return
        arr = np.asarray(mask, dtype=bool)
        if not arr.any():
            raise ValueError("mask must enable at least one gene")
        self._mask = arr

    # -- core loop ------------------------------------------------------------------

    def initialize(self) -> GenerationStats:
        """Create and evaluate generation 0.

        If a mask is already active, every generated individual is pinned
        to the first one (the seed/incumbent) outside the mask, so subset
        tuning constrains the whole run including generation 0.
        """
        if self.population:
            raise RuntimeError("engine already initialized")
        self.population = list(self.toolbox.generate(self.population_size, self.rng))
        if len(self.population) != self.population_size:
            raise ValueError("generate() returned the wrong number of individuals")
        if self._mask is not None:
            seed = self.population[0]
            self.population = [seed] + [
                apply_mask(ind, seed, self._mask) for ind in self.population[1:]
            ]
        if "repair" in self.toolbox:
            self.population = [self.toolbox.repair(ind) for ind in self.population]
        stats = self._evaluate_and_record()
        return stats

    def step(self) -> GenerationStats:
        """Advance one generation and return its stats."""
        if not self.population:
            return self.initialize()
        next_pop: list[Individual] = [ind for ind in elites(self.population, self.n_elites)]
        incumbent = self.best
        while len(next_pop) < self.population_size:
            pa, pb = self.toolbox.select(self.population, self.rng)
            ca, cb = self.toolbox.mate(pa, pb, self.rng)
            for child in (ca, cb):
                if len(next_pop) >= self.population_size:
                    break
                child = self.toolbox.mutate(child, self.rng)
                if self._mask is not None:
                    child = apply_mask(child, incumbent, self._mask)
                if "repair" in self.toolbox:
                    child = self.toolbox.repair(child)
                next_pop.append(child)
        self.population = next_pop
        self._generation += 1
        return self._evaluate_and_record()

    def run(
        self,
        n_generations: int,
        should_stop: Callable[[GenerationStats], bool] | None = None,
    ) -> list[GenerationStats]:
        """Run up to ``n_generations`` (including generation 0 if not yet
        initialised), stopping early when ``should_stop`` returns True."""
        if n_generations < 1:
            raise ValueError("n_generations must be >= 1")
        out: list[GenerationStats] = []
        for _ in range(n_generations):
            stats = self.step()
            out.append(stats)
            if should_stop is not None and should_stop(stats):
                break
        return out

    # -- accessors --------------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def best(self) -> Individual:
        """Best individual of the current population."""
        if not self.population:
            raise RuntimeError("engine not initialized")
        return elites(self.population, 1)[0]

    # -- internals ---------------------------------------------------------------------

    @staticmethod
    def duplicate_groups(individuals: Sequence[Individual]) -> list[list[int]]:
        """Group indices of ``individuals`` by identical genome, in
        first-seen order.  ``[[0, 3], [1], [2]]`` means individuals 0 and
        3 share a genome."""
        groups: dict[bytes, list[int]] = {}
        for i, ind in enumerate(individuals):
            groups.setdefault(ind.genome.tobytes(), []).append(i)
        return list(groups.values())

    def _evaluate_and_record(self) -> GenerationStats:
        pending = [ind for ind in self.population if not ind.evaluated]
        if pending:
            for ind, fit in zip(pending, self._dispatch(pending)):
                ind.fitness = fit
        fitnesses = np.array([ind.fitness for ind in self.population], dtype=float)
        best = self.best
        stats = GenerationStats(
            generation=self._generation,
            best_fitness=float(best.fitness),  # type: ignore[arg-type]
            mean_fitness=float(fitnesses.mean()),
            best=best,
            evaluations=len(pending),
            distinct_genomes=len(self.duplicate_groups(pending)),
        )
        self.history.append(stats)
        return stats

    def _dispatch(self, individuals: list[Individual]) -> list[float]:
        """Evaluate a list of individuals, through ``evaluate_batch``
        when the toolbox registers one, else one ``evaluate`` call each
        (population order either way)."""
        if "evaluate_batch" in self.toolbox:
            fits = [float(f) for f in self.toolbox.evaluate_batch(individuals)]
            if len(fits) != len(individuals):
                raise ValueError(
                    f"evaluate_batch returned {len(fits)} fitnesses "
                    f"for {len(individuals)} individuals"
                )
            return fits
        return [float(self.toolbox.evaluate(ind)) for ind in individuals]
