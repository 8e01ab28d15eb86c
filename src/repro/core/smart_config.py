"""TunIO's Smart Configuration Generation component (Impact-First
Tuning).

Per Section III-C, the component is an RL agent with two neural pieces:

* a **State Observer** -- an NN contextual bandit fed the agent's raw
  inputs (the parameter subset used and the best perf achieved with it)
  whose learned hidden representation is the state observation;
* a **Subset Picker** -- an NN Q-learning function that maps the state
  observation to the subset to tune next iteration.

The reward is ``norm(perf) / norm(num_parameters_subset)`` with a
5-iteration delay: performance per tuned parameter, so small
high-impact subsets dominate.

The subset itself is materialised from a ranked **impact score** per
parameter: initialised offline (parameter sweep + PCA on representative
kernels, see :mod:`.offline_training`) and updated online by crediting
the parameters of a subset with the normalised improvement it produced.
The picker's discrete action chooses the subset *size*; the top-k
parameters by impact fill it (with light exploration swaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.iostack.faults import FaultPlan
from repro.iostack.parameters import ParameterSpace, TUNED_SPACE
from repro.rl.bandit import NeuralContextualBandit
from repro.rl.guardrails import (
    GuardrailMonitor,
    LossDivergenceMonitor,
    bandit_weight_issue,
    corrupt_network,
    qagent_weight_issue,
)
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import DelayedRewardBuffer

from .objective import PerfNormalizer

__all__ = ["SmartConfigSettings", "SmartConfigAgent", "GuardedSubsetPicker"]


@dataclass(frozen=True)
class SmartConfigSettings:
    """Hyper-parameters of the Smart Configuration Generation agent."""

    #: Candidate subset sizes the picker chooses among.
    subset_sizes: tuple[int, ...] = (2, 3, 4, 6, 8, 12)
    #: Reward-maturation delay in iterations (the paper uses 5).
    delay: int = 5
    #: Width of the state observation (bandit hidden layer).
    state_dim: int = 16
    #: EMA rate for online impact-score updates.
    impact_learning_rate: float = 0.25
    #: Probability of swapping one subset member for an excluded
    #: parameter (exploration of the ranking).
    swap_probability: float = 0.25
    discount: float = 0.9
    learning_rate: float = 2e-3
    #: Nominal iteration budget for feature normalisation.
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if not self.subset_sizes or any(k < 1 for k in self.subset_sizes):
            raise ValueError("subset_sizes must be positive")
        if not 0.0 <= self.swap_probability <= 1.0:
            raise ValueError("swap_probability must be in [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")


class SmartConfigAgent:
    """Ranks parameters by impact and picks the next tuning subset."""

    def __init__(
        self,
        space: ParameterSpace = TUNED_SPACE,
        normalizer: PerfNormalizer | None = None,
        settings: SmartConfigSettings | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.space = space
        self.settings = settings or SmartConfigSettings()
        self.normalizer = normalizer
        self.rng = rng if rng is not None else np.random.default_rng()
        n = len(space)
        sizes = tuple(k for k in self.settings.subset_sizes if k <= n)
        if not sizes:
            raise ValueError("no subset size fits the space")
        self.subset_sizes = sizes
        #: Per-parameter impact scores, normalised to sum to 1.
        self.impact_scores = np.full(n, 1.0 / n)
        # Context: subset membership one-hot + [norm perf, iter fraction].
        self.observer = NeuralContextualBandit(
            context_dim=n + 2,
            state_dim=self.settings.state_dim,
            learning_rate=self.settings.learning_rate,
            rng=self.rng,
        )
        self.picker = QLearningAgent(
            QLearningConfig(
                state_dim=self.settings.state_dim,
                n_actions=len(sizes),
                hidden=(24,),
                learning_rate=self.settings.learning_rate,
                discount=self.settings.discount,
                epsilon_start=0.4,
                epsilon_end=0.05,
                epsilon_decay=0.99,
            ),
            self.rng,
        )
        self._delayed = DelayedRewardBuffer(delay=self.settings.delay)
        self._perf_trace: list[float] = []
        self._last_state: np.ndarray | None = None

    # -- context / state ---------------------------------------------------------

    def _context(self, subset: Sequence[str], perf_norm: float, iteration: int) -> np.ndarray:
        onehot = np.array([1.0 if p in subset else 0.0 for p in self.space.names])
        extra = np.array([perf_norm, min(2.0, iteration / self.settings.max_iterations)])
        return np.concatenate([onehot, extra])

    def _normalize(self, perf_mbps: float) -> float:
        if self.normalizer is None:
            return perf_mbps / 1000.0  # fall back to GB/s units
        return self.normalizer.normalize(perf_mbps)

    # -- impact ranking ------------------------------------------------------------

    def _checked_scores(self, scores: Sequence[float]) -> np.ndarray:
        arr = np.array(scores, dtype=float)
        if arr.shape != (len(self.space),):
            raise ValueError("scores must have one entry per parameter")
        if np.any(arr < 0) or arr.sum() <= 0:
            raise ValueError("scores must be non-negative and not all zero")
        return arr

    def set_impact_scores(self, scores: Sequence[float]) -> None:
        """Install offline-trained impact scores (sum-normalised)."""
        arr = self._checked_scores(scores)
        self.impact_scores = arr / arr.sum()

    def ranked_parameters(self) -> tuple[str, ...]:
        """All parameters, most impactful first."""
        order = np.argsort(self.impact_scores)[::-1]
        return tuple(self.space.names[i] for i in order)

    def _materialize_subset(self, k: int) -> tuple[str, ...]:
        """Fill a subset of size ``k``: the top-ranked parameter is
        always included; the rest are sampled without replacement with
        probability proportional to impact score.  Sampling (rather than
        a hard top-k cut) keeps mid-ranked parameters cycling through
        subsets, so online credit assignment can promote a parameter the
        offline sweep under-rated -- interaction-only effects like
        collective I/O depend on this."""
        names = list(self.space.names)
        order = np.argsort(self.impact_scores)[::-1]
        subset = [names[order[0]]]
        if k > 1:
            remaining = [i for i in order[1:]]
            weights = self.impact_scores[remaining] ** 1.5
            weights = weights / weights.sum()
            picks = self.rng.choice(
                len(remaining), size=k - 1, replace=False, p=weights
            )
            subset.extend(names[remaining[int(i)]] for i in picks)
        return tuple(subset)

    # -- the Table I API --------------------------------------------------------------

    def subset_picker(
        self,
        perf_mbps: float,
        current_parameter_set: Sequence[str] | None,
        iteration: int = 0,
    ) -> tuple[str, ...]:
        """Given the perf achieved with the current subset, return the
        subset for the next iteration (Table I: ``subset_picker(perf,
        current_parameter_set) -> next_parameter_set``)."""
        perf_norm = self._normalize(perf_mbps)
        current = tuple(current_parameter_set or self.space.names)

        # Mature delayed rewards from decisions >= delay iterations old.
        self._perf_trace.append(perf_norm)

        context = self._context(current, perf_norm, iteration)
        reward_now = perf_norm / (len(current) / len(self.space))
        self.observer.update(context, reward_now)
        state = self.observer.observe_state(context)

        def delayed_reward(born: int, now: int) -> float:
            horizon = min(now, len(self._perf_trace) - 1)
            return self._perf_trace[horizon] / (len(current) / len(self.space))

        for tr in self._delayed.mature(iteration, delayed_reward, state, done=False):
            self.picker.observe(tr)
        self.picker.train_step()

        action = self.picker.act(state)
        self._delayed.remember(state, action, iteration)
        self.picker.decay_epsilon()

        k = self.subset_sizes[action]
        return self._materialize_subset(k)

    # -- online impact updates ------------------------------------------------------------

    def credit_subset(self, subset: Sequence[str], perf_delta_norm: float) -> None:
        """Credit (or debit) the parameters of a subset with the perf
        change their tuning iteration produced."""
        if not subset:
            return
        beta = self.settings.impact_learning_rate
        scores = self.impact_scores.copy()
        if perf_delta_norm > 0:
            credit = perf_delta_norm / len(subset)
            for name in subset:
                i = self.space.index_of_name(name)
                scores[i] = (1.0 - beta) * scores[i] + beta * (scores[i] + credit)
        else:
            # A fruitless iteration mildly debits its subset so stale
            # rankings erode and other parameters get their turn.
            for name in subset:
                i = self.space.index_of_name(name)
                scores[i] *= 1.0 - 0.25 * beta
        self.impact_scores = scores / scores.sum()

    def reset_episode(self) -> None:
        """Clear per-run state (new tuning session); learned weights and
        impact scores persist, as the paper's agent 'continues to learn
        from the applications it is exposed to'."""
        self._delayed.clear()
        self._perf_trace.clear()
        self._last_state = None

    # -- checkpointing -------------------------------------------------------------------

    def get_state(self) -> dict[str, np.ndarray]:
        out = {"impact_scores": self.impact_scores.copy()}
        for k, v in self.picker.get_weights().items():
            out[f"picker_{k}"] = v
        for k, v in self.observer.model.get_weights().items():
            out[f"observer_{k}"] = v
        return out

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        # Checkpointed scores are already normalised: installed verbatim,
        # since dividing by their sum again can move a score by an ulp.
        self.impact_scores = self._checked_scores(state["impact_scores"])
        picker = {k[len("picker_"):]: v for k, v in state.items() if k.startswith("picker_")}
        observer = {k[len("observer_"):]: v for k, v in state.items() if k.startswith("observer_")}
        if picker:
            self.picker.set_weights(picker)
        if observer:
            self.observer.model.set_weights(observer)


class GuardedSubsetPicker:
    """Guardrail wrapper around :class:`SmartConfigAgent`.

    Sits between the pipeline and the agent and enforces three kinds of
    safety property without perturbing a healthy agent:

    * **weight health** -- before every call that would consume agent
      RNG, the picker's Q-networks and the observer bandit are scanned
      for non-finite or exploded weights.  A dirty network trips the
      guardrail *before* any random draw, so a degraded run consumes
      exactly the same GA random stream as a plain-GA run;
    * **training health** -- after a healthy call, the networks' last
      loss / gradient-norm telemetry feeds a
      :class:`~repro.rl.guardrails.LossDivergenceMonitor`;
    * **output sanity** -- the returned subset must be non-empty, use
      known parameter names, match a configured subset size, and not
      repeat identically for ``constant_window`` consecutive calls
      (degenerate-policy watchdog; full-space subsets are exempt since
      repeating "tune everything" is the legitimate fallback).  Healthy
      pickers empirically never repeat a non-full subset more than
      twice in a row (exploration keeps reshuffling the top-k), so the
      default window of 6 has a 3x margin against false positives
      while still firing inside a short early-stopped run.

    Once any guardrail trips, the wrapper is permanently **degraded**
    for the rest of the run and :meth:`pick` returns ``None``, which the
    pipeline interprets as "tune the full parameter set" (plain-GA
    behaviour).  :meth:`reset` re-arms the wrapper so a journal replay
    re-earns the trip deterministically.

    Fault injection (``FaultPlan.agent_fault``) is applied here: weight
    corruption modes corrupt the underlying networks once when the fault
    activates, and forced-output modes bypass the agent entirely (again
    before any RNG draw, keeping degraded runs bit-reproducible).
    """

    def __init__(
        self,
        agent: SmartConfigAgent,
        monitor: GuardrailMonitor | None = None,
        fault_source: Callable[[], FaultPlan | None] | None = None,
        constant_window: int = 6,
    ):
        if constant_window < 2:
            raise ValueError("constant_window must be >= 2")
        self.agent = agent
        self.monitor = monitor if monitor is not None else GuardrailMonitor()
        self._fault_source = fault_source
        self.constant_window = constant_window
        self._degraded_reason: str | None = None
        self._corrupted = False
        self._forced_constant: tuple[str, ...] | None = None
        self._repeat_subset: tuple[str, ...] | None = None
        self._repeat_count = 0
        # Online-RL losses legitimately jump orders of magnitude when the
        # reward scale shifts (a new best perf rescales the Q-targets);
        # only true numerical runaway -- many orders beyond any healthy
        # Q-value -- may trip, or healthy runs would spuriously degrade.
        self._loss_monitor = LossDivergenceMonitor(divergence_factor=1e6)

    # -- degradation state ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        return self._degraded_reason

    def _trip(self, kind: str, detail: str, iteration: int | None = None) -> None:
        self.monitor.trip("subset-picker", kind, detail, iteration=iteration)
        if self._degraded_reason is None:
            self._degraded_reason = f"{kind}: {detail}"

    def reset(self) -> None:
        """Re-arm the guardrails (used by journal replay; the trip is
        re-earned deterministically from the same fault plan)."""
        self._degraded_reason = None
        self._corrupted = False
        self._forced_constant = None
        self._repeat_subset = None
        self._repeat_count = 0
        self._loss_monitor.reset()

    # -- fault injection -----------------------------------------------------------

    def _active_fault(self, iteration: int) -> str | None:
        if self._fault_source is None:
            return None
        plan = self._fault_source()
        if plan is None:
            return None
        return plan.agent_fault_active(iteration)

    def _apply_corruption(self, mode: str) -> None:
        if self._corrupted:
            return
        self._corrupted = True
        corrupt_network(self.agent.picker.q_network, mode)
        corrupt_network(self.agent.picker.target_network, mode)
        corrupt_network(self.agent.observer.model, mode)

    # -- guarded Table I call ------------------------------------------------------

    def pick(
        self,
        perf_mbps: float,
        current_parameter_set: Sequence[str] | None,
        iteration: int = 0,
    ) -> tuple[str, ...] | None:
        """Guarded ``subset_picker``; ``None`` means *degraded: tune the
        full parameter set*."""
        if self.degraded:
            return None

        fault = self._active_fault(iteration)
        if fault in ("nan-weights", "explode-weights"):
            self._apply_corruption(fault)

        # Pre-call weight scan: trips before any agent RNG is consumed.
        issue = qagent_weight_issue(self.agent.picker)
        if issue is None:
            issue = bandit_weight_issue(self.agent.observer)
        if issue is not None:
            kind = "non-finite-weights" if "non-finite" in issue else "exploded-weights"
            self._trip(kind, issue, iteration)
            return None

        # Forced degenerate outputs bypass the agent (and its RNG).
        if fault == "empty-subset":
            subset: tuple[str, ...] = ()
        elif fault == "constant-subset":
            # A collapsed policy emits literally the same subset forever:
            # freeze the top-2 ranking at the moment the fault engages.
            if self._forced_constant is None:
                self._forced_constant = self.agent.ranked_parameters()[:2]
            subset = self._forced_constant
        else:
            subset = self.agent.subset_picker(perf_mbps, current_parameter_set, iteration)
            reason = self._loss_monitor.observe(
                self.agent.picker.q_network.last_loss,
                self.agent.picker.q_network.last_grad_norm,
            )
            if reason is None:
                reason = self._loss_monitor.observe(self.agent.observer.model.last_loss)
            if reason is not None:
                self._trip("training-divergence", reason, iteration)
                return None

        return self._checked(subset, iteration)

    def _checked(self, subset: tuple[str, ...], iteration: int) -> tuple[str, ...] | None:
        if not subset:
            self._trip("invalid-output", "picker returned an empty subset", iteration)
            return None
        unknown = [p for p in subset if p not in self.agent.space.names]
        if unknown:
            self._trip(
                "invalid-output",
                f"picker returned unknown parameter(s) {unknown!r}",
                iteration,
            )
            return None
        if len(subset) not in self.agent.subset_sizes:
            self._trip(
                "invalid-output",
                f"subset size {len(subset)} not in configured sizes "
                f"{self.agent.subset_sizes!r}",
                iteration,
            )
            return None
        # Degenerate-policy watchdog: the same non-full subset repeated
        # ``constant_window`` times in a row means the policy collapsed.
        if len(subset) < len(self.agent.space):
            if subset == self._repeat_subset:
                self._repeat_count += 1
            else:
                self._repeat_subset = subset
                self._repeat_count = 1
            if self._repeat_count >= self.constant_window:
                self._trip(
                    "degenerate-policy",
                    f"subset {subset!r} repeated {self._repeat_count} times",
                    iteration,
                )
                return None
        else:
            self._repeat_subset = None
            self._repeat_count = 0
        return subset

    # -- transparent delegation ----------------------------------------------------

    def reset_episode(self) -> None:
        self.agent.reset_episode()
        self._repeat_subset = None
        self._repeat_count = 0

    def credit_subset(self, subset: Sequence[str], perf_delta_norm: float) -> None:
        if self.degraded:
            return
        self.agent.credit_subset(subset, perf_delta_norm)

    @property
    def impact_scores(self) -> np.ndarray:
        return self.agent.impact_scores

    def get_state(self) -> dict[str, np.ndarray]:
        return self.agent.get_state()

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        self.agent.set_state(state)
