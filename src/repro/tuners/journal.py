"""Append-only JSONL tuning journal: crash-safe checkpoint/resume.

A long tuning campaign must survive being killed -- by a node failure,
a walltime limit, or an operator -- without losing the budget already
spent.  The journal makes every completed generation durable: after each
GA generation the tuner appends one JSON line carrying the population
(genomes and fitnesses), the dispatched evaluations and their measured
perfs, the RNG state, the noise/fault stream positions, the simulated
clock, the quarantine list and the agent state.  Each line is flushed
and fsynced, so a kill at any instant leaves a valid prefix (a torn
final line is detected and dropped on load).

Resume semantics (bit-identical by construction)
------------------------------------------------
Rather than restoring every stateful component from a snapshot (the RL
agents alone would need their replay buffers, target networks and
epsilon schedules serialised), resume *re-drives the tuner through the
journal*: the pipeline is rebuilt exactly as the original invocation
built it (same seed, same construction order) and re-runs, except that
each journaled generation's evaluations are answered from the journal
instead of the simulator, and the noise/fault stream positions and the
clock are fast-forwarded to the recorded values at each generation
boundary.  Everything that is *not* an evaluation -- breeding, subset
selection, agent training, stopping decisions -- re-executes the exact
code with the exact RNG stream, so the resumed run is the uninterrupted
run.  The recorded RNG state doubles as an integrity check: at every
replayed generation boundary the live RNG state must equal the journaled
one, otherwise the journal does not belong to this pipeline
(:class:`JournalError`).

Replaying skips the simulator entirely, so the evaluation cache is not
warmed by journaled generations; post-resume generations rebuild traces
on demand.  Traces from faulted attempts were never stored (they raise
before construction), so a resumed run can never be served a faulted or
partial trace.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.observability.profiling import maybe_span

__all__ = [
    "JournalError",
    "BaselineRecord",
    "GenerationRecord",
    "Journal",
    "JournalWriter",
    "ReplayCursor",
    "load_journal",
    "rng_state_jsonable",
]

JOURNAL_VERSION = 1


class JournalError(Exception):
    """The journal is unreadable, inconsistent, or belongs to a
    different pipeline than the one replaying it."""


def rng_state_jsonable(rng: np.random.Generator) -> dict[str, Any]:
    """A generator's bit-generator state, normalised through a JSON
    round-trip so recorded and live states compare with ``==``."""
    return json.loads(json.dumps(rng.bit_generator.state))


# -- records -----------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineRecord:
    """The untuned-configuration evaluation that opens every run."""

    perf: float
    noise_position: int
    n_evaluations: int
    fault_state: dict[str, Any] | None = None
    #: Run-relative fastpath counters (cache hits/misses/evictions,
    #: traces built/replayed, disk-cache activity, injected faults) at
    #: this record's boundary.  Restored on replay so a resumed run's
    #: :class:`EvaluationStats` match the uninterrupted run's; counters
    #: a journal from an older build lacks keep their window base.
    fastpath: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "baseline",
            "perf": self.perf,
            "noise_position": self.noise_position,
            "n_evaluations": self.n_evaluations,
            "fault_state": self.fault_state,
            "fastpath": self.fastpath,
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "BaselineRecord":
        return cls(
            perf=float(obj["perf"]),
            noise_position=int(obj["noise_position"]),
            n_evaluations=int(obj["n_evaluations"]),
            fault_state=obj.get("fault_state"),
            fastpath=dict(obj.get("fastpath", {})),
        )


@dataclass(frozen=True)
class GenerationRecord:
    """One completed GA generation: what was evaluated, what it scored,
    and the exact post-generation state of every stream the evaluation
    consumed."""

    iteration: int
    #: Genomes dispatched for evaluation this generation, in order.
    dispatched: tuple[tuple[int, ...], ...]
    #: Their measured perfs (MB/s), same order.
    perfs: tuple[float, ...]
    #: Full population after evaluation (genome, fitness) pairs.
    population: tuple[tuple[tuple[int, ...], float], ...]
    #: Parameter names tuned this generation (subset tuning).
    subset: tuple[str, ...]
    noise_position: int
    clock_seconds: float
    clock_evaluations: int
    n_evaluations: int
    rng_state: dict[str, Any]
    fault_state: dict[str, Any] | None = None
    quarantine: dict[str, str] = field(default_factory=dict)
    resilience: dict[str, int] = field(default_factory=dict)
    agent_state: dict[str, Any] | None = None
    #: Run-relative fastpath counters at this generation's boundary
    #: (see :attr:`BaselineRecord.fastpath`).
    fastpath: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "generation",
            "iteration": self.iteration,
            "dispatched": [list(g) for g in self.dispatched],
            "perfs": list(self.perfs),
            "population": [[list(g), f] for g, f in self.population],
            "subset": list(self.subset),
            "noise_position": self.noise_position,
            "clock_seconds": self.clock_seconds,
            "clock_evaluations": self.clock_evaluations,
            "n_evaluations": self.n_evaluations,
            "rng_state": self.rng_state,
            "fault_state": self.fault_state,
            "quarantine": self.quarantine,
            "resilience": self.resilience,
            "agent_state": self.agent_state,
            "fastpath": self.fastpath,
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "GenerationRecord":
        return cls(
            iteration=int(obj["iteration"]),
            dispatched=tuple(tuple(int(i) for i in g) for g in obj["dispatched"]),
            perfs=tuple(float(p) for p in obj["perfs"]),
            population=tuple(
                (tuple(int(i) for i in g), float(f)) for g, f in obj["population"]
            ),
            subset=tuple(obj.get("subset", ())),
            noise_position=int(obj["noise_position"]),
            clock_seconds=float(obj["clock_seconds"]),
            clock_evaluations=int(obj["clock_evaluations"]),
            n_evaluations=int(obj["n_evaluations"]),
            rng_state=dict(obj["rng_state"]),
            fault_state=obj.get("fault_state"),
            quarantine=dict(obj.get("quarantine", {})),
            resilience=dict(obj.get("resilience", {})),
            agent_state=obj.get("agent_state"),
            fastpath=dict(obj.get("fastpath", {})),
        )


@dataclass
class Journal:
    """A parsed journal: header, baseline, the generation ledger, and
    the final marker when the run completed."""

    header: dict[str, Any]
    baseline: BaselineRecord | None = None
    generations: list[GenerationRecord] = field(default_factory=list)
    final: dict[str, Any] | None = None
    #: Byte length of the valid prefix; a torn trailing line (crash
    #: mid-append) lies beyond it and is truncated away before the
    #: resumed run appends.
    valid_bytes: int = 0

    @property
    def last_iteration(self) -> int:
        """Highest journaled generation index, -1 when none."""
        return self.generations[-1].iteration if self.generations else -1

    @property
    def completed(self) -> bool:
        return self.final is not None


def _iter_records(path: str) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(record, end_offset)`` for decodable JSON lines; stop at
    the first torn/undecodable line (a crash mid-append leaves at most
    one, at the end).  ``end_offset`` is the byte offset just past the
    record's newline, so the caller knows where the valid prefix ends."""
    offset = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            offset += len(line.encode("utf-8"))
            stripped = line.strip()
            if not stripped:
                continue
            if not line.endswith("\n"):
                return  # torn final line without its newline
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError:
                return
            if not isinstance(obj, dict) or "type" not in obj:
                return
            yield obj, offset


def load_journal(path: str) -> Journal:
    """Parse a journal file, tolerating a torn trailing line.

    Raises :class:`JournalError` when the file is missing, does not
    start with a valid header, or interleaves generations out of order.
    """
    if not os.path.exists(path):
        raise JournalError(f"journal not found: {path}")
    records = _iter_records(path)
    try:
        header, end = next(records)
    except StopIteration:
        raise JournalError(f"journal is empty: {path}") from None
    if header.get("type") != "header":
        raise JournalError(f"journal does not start with a header: {path}")
    version = header.get("version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"unsupported journal version {version!r} (supported: {JOURNAL_VERSION})"
        )
    journal = Journal(header=header, valid_bytes=end)
    for obj, end in records:
        kind = obj["type"]
        if kind == "baseline":
            journal.baseline = BaselineRecord.from_json(obj)
        elif kind == "generation":
            record = GenerationRecord.from_json(obj)
            if record.iteration != journal.last_iteration + 1:
                raise JournalError(
                    f"journal generations out of order: expected iteration "
                    f"{journal.last_iteration + 1}, found {record.iteration}"
                )
            journal.generations.append(record)
        elif kind == "final":
            journal.final = obj
        else:
            raise JournalError(f"unknown journal record type {kind!r}")
        journal.valid_bytes = end
    return journal


class JournalWriter:
    """Appends records to a journal file, fsyncing each line.

    When resuming (``resume_from`` is a loaded :class:`Journal`), records
    the resumed run re-emits for already-journaled generations are
    skipped, so the file stays strictly append-only across restarts.
    """

    def __init__(
        self,
        path: str,
        header: Mapping[str, Any],
        resume_from: Journal | None = None,
    ):
        self.path = path
        self._last_recorded = (
            resume_from.last_iteration if resume_from is not None else -1
        )
        self._baseline_recorded = (
            resume_from is not None and resume_from.baseline is not None
        )
        self._final_recorded = resume_from is not None and resume_from.completed
        if resume_from is None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._append(
                {"type": "header", "version": JOURNAL_VERSION, **dict(header)}
            )
        else:
            # Drop any torn trailing line the kill left behind, so the
            # resumed records don't get glued onto half a record.
            if 0 < resume_from.valid_bytes < os.path.getsize(path):
                with open(path, "r+b") as fh:
                    fh.truncate(resume_from.valid_bytes)
            self._fh = open(path, "a", encoding="utf-8")

    def _append(self, obj: Mapping[str, Any]) -> None:
        with maybe_span("journal.fsync"):
            self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def write_baseline(self, record: BaselineRecord) -> None:
        if self._baseline_recorded:
            return
        self._baseline_recorded = True
        self._append(record.to_json())

    def write_generation(self, record: GenerationRecord) -> None:
        if record.iteration <= self._last_recorded:
            return
        self._last_recorded = record.iteration
        self._append(record.to_json())

    def write_final(self, stop_reason: str, stopped_at: int | None) -> None:
        if self._final_recorded:
            return
        self._final_recorded = True
        self._append(
            {"type": "final", "stop_reason": stop_reason, "stopped_at": stopped_at}
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReplayCursor:
    """Feeds journaled evaluations back to a resuming tuner, in order."""

    def __init__(self, journal: Journal):
        self.journal = journal
        self._baseline_consumed = False
        self._next = 0

    def baseline(self) -> BaselineRecord | None:
        """The baseline record, once; None on later calls or when the
        journal has none."""
        if self._baseline_consumed:
            return None
        self._baseline_consumed = True
        return self.journal.baseline

    def next_generation(self) -> GenerationRecord | None:
        """The next journaled generation, or None when the journal is
        exhausted (the tuner goes live from there)."""
        if self._next >= len(self.journal.generations):
            return None
        record = self.journal.generations[self._next]
        self._next += 1
        return record

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.journal.generations)


def verify_dispatch(
    record: GenerationRecord, genomes: Sequence[Sequence[int]]
) -> None:
    """Check that the individuals a replaying engine dispatched match the
    journaled ones -- the cheap integrity guard that catches resuming
    with the wrong seed, workload or tuner settings."""
    recorded = [list(g) for g in record.dispatched]
    live = [list(g) for g in genomes]
    if recorded != live:
        raise JournalError(
            f"journal mismatch at iteration {record.iteration}: the resumed "
            f"pipeline dispatched different genomes than the journaled run "
            f"(was the journal written with different settings or seed?)"
        )


def verify_rng(record: GenerationRecord, rng: np.random.Generator) -> None:
    """Check that the replaying RNG reached the journaled state at the
    generation boundary (the strong bit-identity guard)."""
    live = rng_state_jsonable(rng)
    if live != record.rng_state:
        raise JournalError(
            f"journal mismatch at iteration {record.iteration}: RNG state "
            f"diverged during replay (journal written by an incompatible "
            f"pipeline or code version)"
        )
