"""The generational evolution engine and toolbox."""

import numpy as np
import pytest

from repro.ga import (
    EvolutionEngine,
    Individual,
    Toolbox,
    tournament_pair,
    uniform_crossover,
    uniform_reset_mutation,
)

N_GENES = 6
CARDS = [10] * N_GENES


def make_toolbox(evaluate=None):
    """A toolbox solving 'maximise the genome sum'."""
    toolbox = Toolbox()
    toolbox.register(
        "generate",
        lambda n, rng: [Individual(rng.integers(0, 10, N_GENES)) for _ in range(n)],
    )
    toolbox.register("evaluate", evaluate or (lambda ind: float(ind.genome.sum())))
    toolbox.register("select", tournament_pair)
    toolbox.register("mate", uniform_crossover)
    toolbox.register(
        "mutate",
        lambda ind, rng: uniform_reset_mutation(ind, rng, CARDS, per_gene_probability=0.3),
    )
    return toolbox


def make_engine(pop=8, elites=1, seed=0, evaluate=None):
    return EvolutionEngine(
        make_toolbox(evaluate), population_size=pop, n_elites=elites,
        rng=np.random.default_rng(seed),
    )


# -- Toolbox -------------------------------------------------------------------


def test_toolbox_register_and_call():
    tb = Toolbox()
    tb.register("f", lambda x, y=1: x + y, y=10)
    assert tb.f(5) == 15
    assert "f" in tb
    tb.unregister("f")
    assert "f" not in tb
    with pytest.raises(KeyError):
        tb.unregister("f")
    with pytest.raises(AttributeError):
        tb.missing


def test_toolbox_rejects_non_callable_and_bad_names():
    tb = Toolbox()
    with pytest.raises(TypeError):
        tb.register("x", 42)
    with pytest.raises(ValueError):
        tb.register("register", lambda: None)


def test_toolbox_validate_reports_missing():
    tb = Toolbox()
    with pytest.raises(ValueError, match="generate"):
        tb.validate()


# -- Engine ---------------------------------------------------------------------


def test_engine_improves_fitness():
    engine = make_engine()
    first = engine.step()
    stats = engine.run(30)
    assert stats[-1].best_fitness >= first.best_fitness
    assert stats[-1].best_fitness > 40  # optimum is 54


def test_elitism_is_monotone():
    engine = make_engine(elites=2)
    best = [s.best_fitness for s in engine.run(20)]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def test_elites_not_reevaluated():
    calls = []

    def evaluate(ind):
        calls.append(1)
        return float(ind.genome.sum())

    engine = make_engine(pop=6, elites=2, evaluate=evaluate)
    engine.step()
    assert len(calls) == 6  # generation 0 evaluates everyone
    calls.clear()
    engine.step()
    assert len(calls) == 4  # the two elites carried their fitness


def test_generation_counter_and_history():
    engine = make_engine()
    engine.run(5)
    assert engine.generation == 4  # gen 0 + 4 steps
    assert len(engine.history) == 5
    assert [s.generation for s in engine.history] == list(range(5))


def test_run_stops_on_callback():
    engine = make_engine()
    stats = engine.run(50, should_stop=lambda s: s.generation >= 3)
    assert stats[-1].generation == 3


def test_mask_pins_genes_to_incumbent():
    engine = make_engine(pop=6)
    engine.step()
    incumbent = engine.best.genome.copy()
    mask = np.zeros(N_GENES, dtype=bool)
    mask[0] = True
    engine.set_mask(mask)
    engine.step()
    for ind in engine.population[1:]:  # skip elite
        assert np.array_equal(ind.genome[1:], incumbent[1:])


def test_mask_must_enable_a_gene():
    engine = make_engine()
    with pytest.raises(ValueError):
        engine.set_mask(np.zeros(N_GENES, dtype=bool))
    engine.set_mask(None)  # clearing is fine


def test_validation():
    with pytest.raises(ValueError):
        make_engine(pop=2)
    with pytest.raises(ValueError):
        EvolutionEngine(make_toolbox(), population_size=4, n_elites=4)
    engine = make_engine()
    with pytest.raises(ValueError):
        engine.run(0)
    with pytest.raises(RuntimeError):
        _ = engine.best  # not initialised yet


def test_double_initialize_rejected():
    engine = make_engine()
    engine.initialize()
    with pytest.raises(RuntimeError):
        engine.initialize()


def test_seeded_runs_are_reproducible():
    a = make_engine(seed=42)
    b = make_engine(seed=42)
    sa = a.run(10)
    sb = b.run(10)
    assert [s.best_fitness for s in sa] == [s.best_fitness for s in sb]


# -- batched evaluation ---------------------------------------------------------


def make_batch_engine(pop=8, elites=1, seed=0, batches=None, batch_fn=None):
    toolbox = make_toolbox()
    batches = batches if batches is not None else []

    def evaluate_batch(individuals):
        batches.append(len(individuals))
        return [float(ind.genome.sum()) for ind in individuals]

    toolbox.register("evaluate_batch", batch_fn or evaluate_batch)
    return EvolutionEngine(
        toolbox, population_size=pop, n_elites=elites,
        rng=np.random.default_rng(seed),
    )


def test_batch_dispatch_used_and_sized_like_pending():
    batches = []
    engine = make_batch_engine(pop=6, elites=2, batches=batches)
    engine.step()
    assert batches == [6]  # generation 0 evaluates everyone, as one batch
    engine.step()
    assert batches == [6, 4]  # elites carried their fitness


def test_batch_path_matches_per_individual_path():
    a = make_engine(seed=42)
    b = make_batch_engine(seed=42)
    sa = a.run(10)
    sb = b.run(10)
    assert [s.best_fitness for s in sa] == [s.best_fitness for s in sb]
    assert [s.mean_fitness for s in sa] == [s.mean_fitness for s in sb]


def test_batch_length_mismatch_rejected():
    engine = make_batch_engine(batch_fn=lambda individuals: [1.0])
    with pytest.raises(ValueError, match="evaluate_batch returned"):
        engine.step()


# -- duplicate handling ---------------------------------------------------------


def test_duplicate_groups_first_seen_order():
    a = Individual(np.array([1, 2, 3]))
    b = Individual(np.array([4, 5, 6]))
    a2 = Individual(np.array([1, 2, 3]))
    groups = EvolutionEngine.duplicate_groups([a, b, a2, b])
    assert groups == [[0, 2], [1, 3]]
    assert EvolutionEngine.duplicate_groups([]) == []


def make_duplicate_engine(calls, seed=0):
    """All six generation-0 individuals share one genome."""
    toolbox = make_toolbox()

    def generate(n, rng):
        genome = rng.integers(0, 10, N_GENES)
        return [Individual(genome.copy()) for _ in range(n)]

    def evaluate(ind):
        calls.append(1)
        return float(ind.genome.sum())

    toolbox.register("generate", generate)
    toolbox.register("evaluate", evaluate)
    return EvolutionEngine(
        toolbox, population_size=6, n_elites=1,
        rng=np.random.default_rng(seed),
    )


def test_every_duplicate_genome_is_evaluated():
    calls = []
    engine = make_duplicate_engine(calls)
    stats = engine.step()
    assert len(calls) == 6
    assert stats.evaluations == 6
    assert stats.distinct_genomes == 1


def test_distinct_genomes_recorded_per_generation():
    engine = make_engine()
    stats = engine.step()
    assert 1 <= stats.distinct_genomes <= stats.evaluations
