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
* **One member per entry (schema v3).**  An entry is a valid ``.npz``
  holding a single uint8 array ``entry``, laid out as::

      [3 x int64 sizes | int64 block | float64 block | UTF-8 names]

  The sizes header gives the element counts of the two numeric blocks
  and the byte count of the names.  The int64 block is ``[schema,
  n_phases, n_streams, streams per phase, five phase counter columns,
  two stream counter columns, the length of every name]``; the float64
  block is three phase columns then the streams' ``base_seconds``; the
  names (workload, phases, stream ops) are concatenated and split by
  those lengths.  It is written by one :func:`numpy.savez` and read by
  one :class:`zipfile.ZipFile` open plus
  :func:`numpy.lib.format.read_array`: per-member zip and ``.npy``
  header parsing, not bytes, dominates the load time of small entries.
* **Bit-identity.**  A trace round-trips exactly (int64/float64 values,
  names with any code point, lone surrogates and trailing NULs
  included), and replaying a loaded trace is bit-identical to replaying
  the freshly built one -- the in-memory cache's contract extends to
  disk unchanged.
* **LRU bound.**  ``max_entries`` caps the directory; reads refresh the
  entry mtime and stores evict the stalest entries beyond the cap.  A
  backend lists the directory once, at its first store, and then keeps
  a running count of the entries it adds.  Only when that count exceeds
  ``max_entries`` does it list and ``stat`` the directory again, evict,
  and resync the count from that listing -- so below the cap a store
  costs only its own write, and at the cap one listing per store.
  The cap is soft when several processes share a directory: each
  backend counts only its own stores, so between two of its listings
  the directory can overshoot by what the others stored meanwhile, and
  the next listing trims it back.  Entries another worker deletes
  mid-listing are skipped, not fatal.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import os
import zipfile
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Sequence, TypeVar

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
#: then simply never match and age out of the LRU.  v3 packs the whole
#: entry into one uint8 member (v2 had three members, v1 nine).
DISK_SCHEMA_VERSION = 3

_SUFFIX = ".npz"

#: The single array of an entry; ``np.savez`` stores it as ``entry.npy``.
_MEMBER = "entry"

#: Int64 words in front of every packed entry: the element counts of the
#: int64 and float64 blocks and the byte count of the names.
_HEADER_WORDS = 3

#: Per-process counter making temp-file names unique within one process
#: (the pid in the name separates processes sharing a cache directory).
_TMP_COUNTER = itertools.count()

#: Column order of the per-phase counters; matches :class:`PhaseTrace`'s
#: positional fields, which :func:`trace_from_arrays` relies on.
_PHASE_INTS = tuple(
    map(
        attrgetter,
        ("bytes_written", "bytes_read", "write_ops", "read_ops", "meta_ops"),
    )
)
_PHASE_FLOATS = tuple(
    map(attrgetter, ("overhead_seconds", "base_meta_seconds", "compute_seconds"))
)


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

    ``ints`` (int64) = [schema, n_phases, n_streams, streams per phase,
    the five phase counters column by column, the two stream counters
    column by column, the length of every name]; ``floats`` (float64) =
    the three phase timings column by column, then ``base_seconds`` per
    stream; ``names`` (uint8) = the UTF-8 of the workload name, the
    phase names and the stream ops, concatenated.  A backend entry packs
    the three behind a sizes header (see the module docstring).
    """
    phases = trace.phases
    streams = [s for p in phases for s in p.streams]
    names = [trace.workload_name, *(p.name for p in phases), *(s.op for s in streams)]
    ints = [DISK_SCHEMA_VERSION, len(phases), len(streams)]
    ints += [len(p.streams) for p in phases]
    for column in _PHASE_INTS:
        ints += map(column, phases)
    ints += [s.total_bytes for s in streams]
    ints += [s.total_ops for s in streams]
    ints += map(len, names)
    floats: list[float] = []
    for column in _PHASE_FLOATS:
        floats += map(column, phases)
    floats += [s.base_seconds for s in streams]
    text = "".join(names).encode("utf-8", "surrogatepass")
    return {
        "ints": np.array(ints, dtype="<i8"),
        "floats": np.array(floats, dtype="<f8"),
        "names": np.frombuffer(text, dtype=np.uint8),
    }


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
    m, k = iv[1], iv[2]
    counts, *phase_ints, stream_bytes, stream_ops, lengths = _split(
        iv[3:], [m] * 6 + [k, k, 1 + m + k]
    )
    *phase_floats, stream_seconds = _split(floats.tolist(), [m, m, m, k])
    text = names.tobytes().decode("utf-8", "surrogatepass")
    workload_name, *labels = _split(text, lengths)  # phase names, stream ops
    streams = list(
        map(StreamTrace, labels[m:], stream_seconds, stream_bytes, stream_ops)
    )
    phases = map(
        PhaseTrace,
        labels[:m],
        *phase_ints,
        *phase_floats,
        map(tuple, _split(streams, counts)),
    )
    return StackTrace(workload_name, tuple(phases))


T = TypeVar("T")


def _split(values: Sequence[T], sizes: list[int]) -> list[Sequence[T]]:
    """Consecutive runs of ``values`` with the given sizes, which must
    cover it exactly."""
    if min(sizes, default=0) < 0 or sum(sizes) != len(values):
        raise ValueError("disk-cache entry sizes disagree with its contents")
    ends = list(itertools.accumulate(sizes))
    return [values[a:b] for a, b in zip([0, *ends], ends)]


def _pack(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The one uint8 member of an entry: sizes header, then the int64,
    float64 and name bytes of :func:`trace_to_arrays` back to back."""
    ints, floats, names = arrays["ints"], arrays["floats"], arrays["names"]
    header = np.array([ints.size, floats.size, names.size], dtype="<i8")
    return np.frombuffer(
        b"".join((header.tobytes(), ints.tobytes(), floats.tobytes(), names.tobytes())),
        dtype=np.uint8,
    )


def _unpack(blob: np.ndarray) -> dict[str, np.ndarray]:
    """Split a packed entry into the arrays :func:`trace_from_arrays`
    reads (views, no copies)."""
    head = 8 * _HEADER_WORDS
    if blob.dtype != np.uint8 or blob.ndim != 1 or blob.size < head:
        raise ValueError("disk-cache entry is not a packed uint8 vector")
    n_ints, n_floats, n_bytes = np.frombuffer(blob, "<i8", _HEADER_WORDS).tolist()
    if min(n_ints, n_floats, n_bytes) < 0 or (
        head + 8 * (n_ints + n_floats) + n_bytes != blob.size
    ):
        raise ValueError("disk-cache entry size disagrees with its header")
    start = head + 8 * n_ints
    return {
        "ints": np.frombuffer(blob, "<i8", n_ints, head),
        "floats": np.frombuffer(blob, "<f8", n_floats, start),
        "names": blob[start + 8 * n_floats :],
    }


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
        least-recently-used files beyond it (see the module docstring
        for when the directory is listed).
    """

    def __init__(self, cache_dir: str | Path, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: ``cache_dir`` as a string: entry paths are built per lookup and
        #: per store, and string joins cost a fraction of ``Path``'s.
        self._root = os.fspath(self.cache_dir)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.errors = 0
        #: Running entry count; ``None`` until the first store lists the
        #: directory.
        self._entries: int | None = None

    def __len__(self) -> int:
        return len(self._entry_names())

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

    def _path(self, key: str) -> str:
        return os.path.join(self._root, key + _SUFFIX)

    # -- lookups ---------------------------------------------------------------

    def load(self, key: str) -> StackTrace | None:
        """The stored trace, or ``None``.  Counts a hit or a miss;
        unreadable entries are treated as misses (and counted as
        errors)."""
        path = self._path(key)
        try:
            with zipfile.ZipFile(path) as archive:
                with archive.open(f"{_MEMBER}.npy") as member:
                    blob = np.lib.format.read_array(member, allow_pickle=False)
            trace = trace_from_arrays(_unpack(blob))
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
        tmp = os.path.join(
            self._root, f".{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )
        try:
            blob = _pack(trace_to_arrays(trace))
            with open(tmp, "wb") as fh:
                np.savez(fh, **{_MEMBER: blob})
            os.replace(tmp, path)
        except Exception:
            self.errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1
        # Overwriting an existing key overcounts; that only brings the
        # next listing forward, which resyncs the count.
        if self._entries is not None and self._entries < self.max_entries:
            self._entries += 1
        else:
            self._evict()

    def _entry_names(self) -> list[str]:
        """Entry file names (no temp files); ``[]`` if the directory is
        gone."""
        try:
            with os.scandir(self._root) as listing:
                return [
                    e.name
                    for e in listing
                    if e.name.endswith(_SUFFIX) and not e.name.startswith(".")
                ]
        except FileNotFoundError:
            return []

    def _evict(self) -> None:
        """List the directory, drop the least-recently-used entries
        beyond ``max_entries`` and resync the running count.  Races with
        concurrent workers are benign: an entry deleted between the
        listing and its ``stat`` or ``unlink`` is skipped."""
        try:
            names = self._entry_names()
        except OSError:
            return
        if len(names) <= self.max_entries:
            self._entries = len(names)
            return
        entries = []
        for name in names:
            path = os.path.join(self._root, name)
            try:
                entries.append((os.stat(path).st_mtime, path))
            except OSError:  # already evicted by another worker
                continue
        entries.sort()
        gone = 0
        for _, path in entries[: max(len(entries) - self.max_entries, 0)]:
            try:
                os.unlink(path)
                self.evictions += 1
            except FileNotFoundError:  # another worker evicted it first
                pass
            except OSError:
                continue
            gone += 1
        self._entries = len(entries) - gone

    def clear(self) -> None:
        """Remove every entry (counters are kept)."""
        for name in self._entry_names():
            try:
                os.unlink(os.path.join(self._root, name))
            except OSError:
                pass
        self._entries = None
