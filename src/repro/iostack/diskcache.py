"""Persistent on-disk backend for the evaluation cache.

:class:`~repro.iostack.evalcache.EvaluationCache` memoizes noise-free
stack traces in memory, which makes *one* tuning run fast but leaves
every new process cold: a second figure run, a resumed sweep, or a fleet
of parallel experiment workers all re-traverse the same stack for the
same configurations.  :class:`DiskCacheBackend` persists the traces as
content-addressed ``.npz`` entries under a cache directory, so repeat
runs -- and concurrent workers sharing one ``--cache-dir`` -- start
warm.

Design
------
* **Content-addressed keys.**  An entry's filename is a SHA-256 digest
  over everything that determines the trace *and* the conditions under
  which serving it is safe: the schema version, the platform, the
  workload fingerprint, the configuration (space names and values), the
  active :meth:`~repro.iostack.faults.FaultPlan.fingerprint` and the
  active
  :meth:`~repro.iostack.parameters.ConstraintRegistry.fingerprint`.
  Serving a cached trace skips the fault plan's per-attempt decision
  draw, so an entry written under one plan must never satisfy a lookup
  under a different one -- the plan fingerprint in the key guarantees
  that structurally instead of by caller discipline.
* **Atomic writes.**  Entries are written to a process-unique temp file
  in the cache directory and published with :func:`os.replace`, so a
  reader never observes a torn entry and concurrent writers of the same
  key simply last-write-win with identical bytes (traces are
  deterministic functions of the key).
* **Bit-identity.**  A trace round-trips through ``.npz`` exactly
  (int64/float64/str arrays), and replaying a loaded trace is
  bit-identical to replaying the freshly built one -- the in-memory
  cache's contract extends to disk unchanged.
* **LRU bound.**  ``max_entries`` caps the directory; reads refresh the
  entry mtime and stores evict the stalest files beyond the cap.
  Eviction races between workers are benign (missing files are skipped).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Hashable

import numpy as np

from .evalcache import workload_fingerprint
from .simulator import PhaseTrace, StackTrace, StreamTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Platform
    from .config import StackConfiguration
    from .simulator import WorkloadLike

__all__ = [
    "DISK_SCHEMA_VERSION",
    "DiskCacheStats",
    "DiskCacheBackend",
    "trace_to_arrays",
    "trace_from_arrays",
]

#: Bump when the entry layout or the key recipe changes; old entries
#: then simply never match and age out of the LRU.  v2 packed the nine
#: per-field arrays into three dense ones: zip-member overhead, not
#: bytes, dominates small-entry load times.
DISK_SCHEMA_VERSION = 2

_SUFFIX = ".npz"

#: Per-process counter making temp-file names unique within one process
#: (the pid in the name separates processes sharing a cache directory).
_TMP_COUNTER = itertools.count()


@dataclass(frozen=True)
class DiskCacheStats:
    """Counters of one backend instance (per process, not per directory)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Unreadable/corrupt entries and failed writes -- all swallowed
    #: (the disk layer degrades to a miss, never breaks an evaluation).
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


# -- trace serialization -----------------------------------------------------------


def trace_to_arrays(trace: StackTrace) -> dict[str, np.ndarray]:
    """Flatten a :class:`StackTrace` into three fixed-dtype arrays.

    Phases and their variable-length stream tuples are flattened with an
    explicit per-phase stream count, packed into exactly one int64, one
    float64 and one unicode array (``np.savez`` without
    ``allow_pickle``).  Three members, not nine: per-member zip overhead
    dominates the load time of small entries, so fewer members is what
    makes a warm start cheap.

    Layout: ``ints`` = [schema, n_phases, n_streams, stream counts per
    phase, 5 counters per phase, 2 counters per stream]; ``floats`` =
    [3 per phase, base_seconds per stream]; ``names`` = [workload name,
    phase names, stream ops].
    """
    phases = trace.phases
    streams = [s for p in phases for s in p.streams]
    m, k = len(phases), len(streams)
    ints = np.empty(3 + m + 5 * m + 2 * k, dtype=np.int64)
    ints[0:3] = (DISK_SCHEMA_VERSION, m, k)
    ints[3 : 3 + m] = [len(p.streams) for p in phases]
    ints[3 + m : 3 + 6 * m] = [
        value
        for p in phases
        for value in (p.bytes_written, p.bytes_read, p.write_ops, p.read_ops, p.meta_ops)
    ]
    ints[3 + 6 * m :] = [
        value for s in streams for value in (s.total_bytes, s.total_ops)
    ]
    floats = np.empty(3 * m + k, dtype=np.float64)
    floats[: 3 * m] = [
        value
        for p in phases
        for value in (p.overhead_seconds, p.base_meta_seconds, p.compute_seconds)
    ]
    floats[3 * m :] = [s.base_seconds for s in streams]
    names = np.array(
        [trace.workload_name, *(p.name for p in phases), *(s.op for s in streams)],
        dtype=np.str_,
    )
    return {"ints": ints, "floats": floats, "names": names}


def trace_from_arrays(data: dict[str, np.ndarray]) -> StackTrace:
    """Inverse of :func:`trace_to_arrays`; exact round-trip."""
    try:
        ints, floats, names = data["ints"], data["floats"], data["names"]
    except KeyError as exc:
        raise ValueError(f"disk-cache entry missing member {exc}") from exc
    if ints.size < 3 or int(ints[0]) != DISK_SCHEMA_VERSION:
        found = int(ints[0]) if ints.size else "?"
        raise ValueError(
            f"disk-cache entry schema {found} != {DISK_SCHEMA_VERSION}"
        )
    # One C-level pass per array beats thousands of numpy-scalar
    # conversions on the hot warm-start path.
    iv: list[int] = ints.tolist()
    fv: list[float] = floats.tolist()
    nv: list[str] = names.tolist()
    m, k = iv[1], iv[2]
    counts = iv[3 : 3 + m]
    phase_ints = iv[3 + m : 3 + 6 * m]
    stream_ints = iv[3 + 6 * m :]
    phase_floats = fv[: 3 * m]
    stream_seconds = fv[3 * m :]
    phases = []
    offset = 0
    for i in range(m):
        lo, hi = offset, offset + counts[i]
        offset = hi
        streams = tuple(
            StreamTrace(
                op=nv[1 + m + j],
                base_seconds=stream_seconds[j],
                total_bytes=stream_ints[2 * j],
                total_ops=stream_ints[2 * j + 1],
            )
            for j in range(lo, hi)
        )
        pi = phase_ints[5 * i : 5 * i + 5]
        pf = phase_floats[3 * i : 3 * i + 3]
        phases.append(
            PhaseTrace(
                name=nv[1 + i],
                bytes_written=pi[0],
                bytes_read=pi[1],
                write_ops=pi[2],
                read_ops=pi[3],
                meta_ops=pi[4],
                overhead_seconds=pf[0],
                base_meta_seconds=pf[1],
                compute_seconds=pf[2],
                streams=streams,
            )
        )
    return StackTrace(workload_name=nv[0], phases=tuple(phases))


# -- content addressing ------------------------------------------------------------


@functools.lru_cache(maxsize=512)
def _context_digest(platform: "Platform", fingerprint: Hashable) -> bytes:
    """Digest of the stable (schema, platform, workload) key prefix.

    The workload fingerprint is a deep phase-structure tuple; ``repr``-ing
    and hashing it dominates the cost of a key, and every evaluation of
    one workload repeats it.  Memoizing the prefix digest (platform and
    fingerprint are both hashable) leaves only the per-call tail --
    config values and run fingerprints -- on the hot path.
    """
    head = (DISK_SCHEMA_VERSION, tuple(dataclasses.astuple(platform)), fingerprint)
    return hashlib.sha256(repr(head).encode("utf-8", "backslashreplace")).digest()


# -- the backend -------------------------------------------------------------------


class DiskCacheBackend:
    """Content-addressed, LRU-bounded trace store in one directory.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries (created on demand).  Safe to
        share between concurrent processes.
    max_entries:
        Soft cap on the number of entries; stores evict the
        least-recently-used files beyond it.
    """

    def __init__(self, cache_dir: str | Path, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.errors = 0

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob(f"*{_SUFFIX}"))

    def stats(self) -> DiskCacheStats:
        return DiskCacheStats(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
            errors=self.errors,
        )

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def entry_key(
        platform: "Platform",
        workload: "WorkloadLike",
        config: "StackConfiguration",
        fault_fingerprint: str | None = None,
        constraint_fingerprint: str | None = None,
    ) -> str:
        """The content address of one trace.

        Keyed by schema version, platform, workload fingerprint,
        configuration (parameter names and values in space order), and
        the fault-plan / constraint-registry fingerprints of the run --
        ``None`` meaning "no plan" / "no registry", which is itself a
        distinct key component so plan-less entries never leak into
        fault-injected runs or vice versa.
        """
        tail = (
            tuple((name, repr(config[name])) for name in config.space.names),
            fault_fingerprint,
            constraint_fingerprint,
        )
        return hashlib.sha256(
            _context_digest(platform, workload_fingerprint(workload))
            + repr(tail).encode("utf-8", "backslashreplace")
        ).hexdigest()

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}{_SUFFIX}"

    # -- lookups ---------------------------------------------------------------

    def load(self, key: str) -> StackTrace | None:
        """The stored trace, or ``None``.  Counts a hit or a miss;
        unreadable entries are treated as misses (and counted as
        errors)."""
        path = self._path(key)
        try:
            with np.load(path) as archive:
                data = {name: archive[name] for name in archive.files}
            trace = trace_from_arrays(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # corrupt/torn/foreign file: degrade to a miss
            self.misses += 1
            self.errors += 1
            return None
        try:
            os.utime(path)  # LRU recency
        except OSError:
            pass
        self.hits += 1
        return trace

    def store(self, key: str, trace: StackTrace) -> None:
        """Persist a trace atomically; failures are swallowed (a broken
        disk cache degrades to cold starts, never to broken runs)."""
        path = self._path(key)
        tmp = self.cache_dir / f".{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        try:
            arrays = trace_to_arrays(trace)
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except Exception:
            self.errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self.stores += 1
        self._evict()

    def _evict(self) -> None:
        """Drop the least-recently-used entries beyond ``max_entries``.
        Races with concurrent workers are benign: already-deleted files
        are skipped."""
        try:
            entries = sorted(
                (
                    (p.stat().st_mtime, p)
                    for p in self.cache_dir.glob(f"*{_SUFFIX}")
                ),
                key=lambda pair: pair[0],
            )
        except OSError:
            return
        excess = len(entries) - self.max_entries
        for _, path in entries[:excess] if excess > 0 else []:
            try:
                path.unlink()
                self.evictions += 1
            except OSError:
                pass

    def clear(self) -> None:
        """Remove every entry (counters are kept)."""
        for path in self.cache_dir.glob(f"*{_SUFFIX}"):
            try:
                path.unlink()
            except OSError:
                pass
