"""Durable write-ahead journal for crash-recoverable repairs.

The coordinator holds the whole repair plan and its round progress in
memory; if the coordinator process dies mid-repair, that state must be
reconstructible or a restarted run will redo (or double-apply) work the
cluster already paid for.  :class:`RepairJournal` is the durability
layer: an append-only log of typed records, each framed as::

    [u32 payload length][u32 CRC32 of payload][payload: UTF-8 JSON]

Records are appended *before* the state transition they describe is
acted on (write-ahead).  Replay (:meth:`RepairJournal.replay`) walks
frames until the first short or CRC-mismatched one — a torn tail from
a crash mid-write — and truncates the file back to the last complete
record, so a recovered coordinator appends to a clean tail.

Record vocabulary (see ``repro.runtime.coordinator``):

* :class:`PlanCommitted` — the full serialized plan, the coordinator's
  epoch and the packet size; the first record of every (re)incarnation.
* :class:`RoundStarted` / :class:`RoundCompleted` — round brackets.
* :class:`ActionCompleted` — one chunk durably repaired; carries the
  *executed* (possibly healed) action so recovery knows the effective
  destination.
* :class:`RepairFinished` — the terminal record; replaying a finished
  journal is a no-op (idempotent recovery).

The fsync policy is configurable via
:attr:`~repro.runtime.config.RuntimeConfig.journal_fsync`: ``"always"``
fsyncs every append (a crash loses at most the record being written),
``"never"`` leaves flushing to the OS (faster, used by tests and
benches that only need crash *points*, not power-failure durability).

Deterministic crash injection lives here, and only here:
``crash_after_records=N`` makes the journal raise
:class:`CoordinatorCrash` immediately *after* the N-th append hits the
file — the record is on disk, the coordinator dies before acting on it
— which is exactly the window the crash-point sweep tests iterate
over; ``crash_after_round=R`` does the same after the first
``RoundCompleted`` whose round index is ``R`` or more.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Type, Union

_HEADER = struct.Struct("<II")


class JournalError(RuntimeError):
    """Raised on a structurally unusable journal (not on torn tails)."""


class CoordinatorCrash(RuntimeError):
    """Injected coordinator death (crash_after_records tripped)."""

    def __init__(self, records_written: int):
        self.records_written = records_written
        super().__init__(
            f"coordinator crashed after journal record {records_written}"
        )


# ----------------------------------------------------------------------
# record types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanCommitted:
    """The plan (serialized via ``RepairPlan.to_dict``) is committed."""

    epoch: int
    plan: Dict[str, Any]
    packet_size: int


@dataclass(frozen=True)
class RoundStarted:
    """The coordinator is about to issue round ``round_index``."""

    epoch: int
    round_index: int


@dataclass(frozen=True)
class ActionCompleted:
    """One chunk repair ACKed and durably written at its destination.

    ``action`` is the executed (possibly healed) action via
    ``ChunkRepairAction`` serialization, so recovery reconciles against
    the *effective* destination, not the planned one.
    """

    epoch: int
    round_index: int
    action: Dict[str, Any]
    attempt: int


@dataclass(frozen=True)
class RoundCompleted:
    """Every action of round ``round_index`` is complete."""

    epoch: int
    round_index: int


@dataclass(frozen=True)
class RepairFinished:
    """The whole plan is repaired; the journal is terminal."""

    epoch: int


@dataclass(frozen=True)
class ShardTakeover:
    """A surviving coordinator adopted this shard after its owner died.

    Appended by the successor (under its bumped ``epoch``) right after
    journal replay, before any re-issued command — so the journal
    itself shows who owned the shard when.  ``adopter`` is the shard
    whose coordinator performed the takeover (or ``-1`` when the
    orchestrating driver did it directly).
    """

    epoch: int
    shard: int
    adopter: int


JournalRecord = Union[
    PlanCommitted,
    RoundStarted,
    ActionCompleted,
    RoundCompleted,
    RepairFinished,
    ShardTakeover,
]

_RECORD_TYPES: Dict[str, Type[JournalRecord]] = {
    "plan_committed": PlanCommitted,
    "round_started": RoundStarted,
    "action_completed": ActionCompleted,
    "round_completed": RoundCompleted,
    "repair_finished": RepairFinished,
    "shard_takeover": ShardTakeover,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}


def encode_frame(payload: bytes) -> bytes:
    """Frame one payload: ``[u32 length][u32 CRC32][payload]``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frames(
    path: Union[str, Path],
    decode: Callable[[bytes], Any],
    truncate: bool = True,
) -> List[Any]:
    """Decode every complete frame of ``path``; truncate the torn tail.

    Walks the frames in order and stops at the first incomplete or
    CRC-mismatched frame — the torn tail of a crash mid-append (or a
    corrupted record, after which nothing downstream can be trusted) —
    or at a payload ``decode`` rejects with ``ValueError``,
    ``TypeError`` or ``KeyError``, which counts as corruption too.
    With ``truncate=True`` the file is cut back to the last good frame
    so subsequent appends extend a clean log; reading twice therefore
    yields the same records.  Any other exception from ``decode``
    propagates and nothing is truncated.  A missing file holds no
    records.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return []
    records: List[Any] = []
    offset = 0
    while offset + _HEADER.size <= len(blob):
        length, crc = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(blob):
            break  # torn tail: header written, payload incomplete
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupted record: stop trusting the log here
        try:
            records.append(decode(payload))
        except (ValueError, TypeError, KeyError):
            break  # undecodable record counts as corruption
        offset = end
    if truncate and offset < len(blob):
        with open(path, "r+b") as f:
            f.truncate(offset)
    return records


def encode_record(record: JournalRecord) -> bytes:
    """Frame one record: length + CRC32 header, JSON payload."""
    name = _TYPE_NAMES.get(type(record))
    if name is None:
        raise JournalError(f"unknown journal record type {type(record)!r}")
    # A shallow field dict: the JSON of a record's plan or action dict
    # is the same whether or not it is copied first (asdict deep-copies).
    payload = json.dumps(
        {"type": name, **vars(record)}, separators=(",", ":")
    ).encode("utf-8")
    return encode_frame(payload)


def decode_payload(payload: bytes) -> JournalRecord:
    document = json.loads(payload.decode("utf-8"))
    name = document.pop("type", None)
    cls = _RECORD_TYPES.get(name)
    if cls is None:
        raise JournalError(f"unknown journal record type {name!r}")
    return cls(**document)


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------


class RepairJournal:
    """Append-only, CRC-framed write-ahead log for one repair.

    Args:
        path: journal file; created if absent, appended to otherwise
            (recovery reuses the same file across coordinator epochs).
        fsync: ``"always"`` or ``"never"`` (see module docstring).
        crash_after_records: deterministic fault hook — raise
            :class:`CoordinatorCrash` right after the N-th successful
            append of this journal instance.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; counts
            appended records by type (``journal_records_total``) and
            times each fsync (``journal_fsync_seconds``).
    """

    FSYNC_POLICIES = ("always", "never")

    def __init__(
        self,
        path: Union[str, Path],
        fsync: str = "always",
        crash_after_records: Optional[int] = None,
        metrics=None,
    ):
        if fsync not in self.FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {self.FSYNC_POLICIES}, "
                f"got {fsync!r}"
            )
        if crash_after_records is not None and crash_after_records < 1:
            raise ValueError("crash_after_records must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.crash_after_records = crash_after_records
        #: fault hook: raise right after a RoundCompleted(index >= this)
        self.crash_after_round: Optional[int] = None
        #: records appended by this instance (not counting replayed ones)
        self.records_written = 0
        self._record_counter = None
        self._fsync_hist = None
        self._fsync_counter = None
        if metrics is not None:
            self._record_counter = metrics.counter(
                "journal_records_total",
                "write-ahead journal records appended, by record type",
            )
            self._fsync_hist = metrics.histogram(
                "journal_fsync_seconds",
                "duration of each journal fsync",
            )
            self._fsync_counter = metrics.counter(
                "journal_fsyncs_total",
                "journal fsyncs issued",
            )
        self._file = open(self.path, "ab")

    # -- writing -------------------------------------------------------

    def append(self, record: JournalRecord) -> None:
        """Durably append one record; may raise the injected crash.

        The record is written (and fsynced per policy) *before* any
        crash injection fires, mirroring a process that dies right
        after its write returns.
        """
        if self._file.closed:
            raise JournalError("journal is closed")
        self._file.write(encode_record(record))
        self._file.flush()
        if self.fsync == "always":
            started = time.perf_counter()
            os.fsync(self._file.fileno())
            if self._fsync_hist is not None:
                self._fsync_hist.observe(time.perf_counter() - started)
                self._fsync_counter.inc()
        self.records_written += 1
        if self._record_counter is not None:
            self._record_counter.inc(
                type=_TYPE_NAMES.get(type(record), "unknown")
            )
        if (
            self.crash_after_records is not None
            and self.records_written >= self.crash_after_records
        ) or (
            isinstance(record, RoundCompleted)
            and self.crash_after_round is not None
            and record.round_index >= self.crash_after_round
        ):
            self.close()
            raise CoordinatorCrash(self.records_written)

    def kill_on_next_append(self) -> None:
        """Arm an immediate crash: the next append raises.

        Fault-injection hook for correlated failures: a rack-level
        event that takes a coordinator down cannot interrupt a Python
        thread at an arbitrary point, so it arms the journal instead —
        the coordinator dies at its next write-ahead append, exactly
        where a killed process would leave the log.  No-op on a journal
        that is already closed (the coordinator is already dead).
        """
        if not self._file.closed:
            self.crash_after_records = self.records_written + 1

    def reset(self) -> None:
        """Drop every record: a fresh repair run owns the whole file.

        :meth:`Coordinator.execute` calls this before committing a new
        plan, so a journal file left over from a *previous, finished*
        repair cannot masquerade as this run's progress.  Recovery
        (:meth:`Coordinator.resume`) never resets — successor epochs
        keep appending to the crashed run's records.
        """
        if self._file.closed:
            raise JournalError("journal is closed")
        self._file.truncate(0)
        self._file.seek(0)
        if self.fsync == "always":
            os.fsync(self._file.fileno())
        self.records_written = 0

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "RepairJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay --------------------------------------------------------

    @staticmethod
    def replay(
        path: Union[str, Path], truncate: bool = True
    ) -> List[JournalRecord]:
        """Read every complete record; truncate the torn tail.

        The frame walk is :func:`read_frames`: it stops at the first
        incomplete, CRC-mismatched or undecodable frame and, with
        ``truncate=True`` (the default), cuts the file back to the last
        good record.  Replaying twice therefore yields the same records
        — replay is idempotent.

        Raises:
            JournalError: an intact frame holds a record type this
                version does not know.  That is not a torn tail, so it
                is never skipped or truncated away.
        """
        return read_frames(path, decode_payload, truncate)
