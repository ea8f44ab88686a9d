"""Sweep result store: streamed JSONL + a SQLite index, finalized atomically.

A sweep streams every audited run record as it completes — append-only
JSONL for grep/jq-ability, plus a SQLite index over the axis and outcome
columns so reports can query thousands of runs without re-parsing the
stream.  The JSONL is flushed line by line to a ``*.partial`` path while
the sweep runs; the index, which nobody can open before then, is built
from the buffered rows in one transaction in :meth:`SweepStore.finalize`,
and both are moved to their final names there via :func:`atomic_replace` —
an interrupted nightly job leaves only ``.partial`` droppings, never a
truncated final artifact that would poison the next consumer.  ``sdr-mpi
campaign --json`` shares the same helper (:func:`atomic_write_text`) for
its single-shot artifact.

Schema (``runs`` table; ``record`` holds the full JSON line)::

    idx INTEGER PRIMARY KEY,   -- config index in the sweep matrix
    protocol TEXT, degree INT, n_ranks INT, workload TEXT, mix TEXT,
    seed INT,                  -- campaign seed of this config
    outcome TEXT,              -- completed/degraded/failed/deadlocked
    error TEXT, invariant_error TEXT,
    events INT, runtime REAL, stranded_frames INT, stranded_envs INT,
    fingerprint TEXT, record TEXT

plus a one-row ``meta`` table carrying the sweep-level summary (spec,
cache hit/miss accounting, worker crashes) as JSON.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["StoreError", "SweepStore", "atomic_replace", "atomic_write_text"]


class StoreError(RuntimeError):
    """Store misuse: path collision, missing artifact, finalized twice."""


def atomic_write_text(path: str, text: str) -> None:
    """Write *text* to *path* atomically (write temp, fsync, rename).

    A reader never observes a truncated file: either the old content (or
    absence) or the complete new content.  Used by ``sdr-mpi campaign
    --json`` and the sweep store's finalize step.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def atomic_replace(partial: str, final: str) -> None:
    """Promote a fully-written ``.partial`` artifact to its final name."""
    os.replace(partial, final)


_COLUMNS: Tuple[str, ...] = (
    "idx", "protocol", "degree", "n_ranks", "workload", "mix", "seed",
    "outcome", "error", "invariant_error", "events", "runtime",
    "stranded_frames", "stranded_envs", "fingerprint", "record",
)

_SCHEMA = f"""
CREATE TABLE runs ({", ".join(
    c + (" INTEGER PRIMARY KEY" if c == "idx" else "") for c in _COLUMNS)});
CREATE INDEX runs_outcome ON runs (outcome);
CREATE INDEX runs_axes ON runs (protocol, degree, n_ranks, workload, mix);
CREATE TABLE meta (summary TEXT);
"""


class SweepStore:
    """One sweep's artifacts: ``<base>.jsonl`` + ``<base>.sqlite``.

    Create-side lifecycle: :meth:`create` → :meth:`append` per record (in
    completion order — the ``idx`` column, not file order, is the config
    identity) → :meth:`finalize` (atomic promotion).  Read side:
    :meth:`open` → :meth:`records` / :meth:`sql` / :attr:`summary`.
    """

    def __init__(
        self, base: str, *, _writable: bool, _conn: Optional[sqlite3.Connection] = None
    ) -> None:
        self.base = base
        self.jsonl_path = base + ".jsonl"
        self.db_path = base + ".sqlite"
        self._writable = _writable
        self._conn = _conn  # read side only: the index is written in finalize()
        self._jsonl_fh = None
        self._rows: List[Tuple] = []
        self._finalized = False

    # ------------------------------------------------------------- creation
    @classmethod
    def create(cls, base: str, overwrite: bool = False) -> "SweepStore":
        """Open a fresh store for streaming; collides loudly by default."""
        jsonl, db = base + ".jsonl", base + ".sqlite"
        existing = [p for p in (jsonl, db) if os.path.exists(p)]
        if existing and not overwrite:
            raise StoreError(
                f"store artifacts already exist: {', '.join(existing)} "
                f"(pass overwrite to replace them)"
            )
        parent = os.path.dirname(os.path.abspath(base))
        if not os.path.isdir(parent):
            raise StoreError(f"store directory does not exist: {parent}")
        for stale in (jsonl + ".partial", db + ".partial"):
            if os.path.exists(stale):
                os.remove(stale)
        store = cls(base, _writable=True)
        store._jsonl_fh = open(jsonl + ".partial", "w")
        return store

    def append(self, record: Dict[str, Any]) -> None:
        """Stream one run record: a flushed JSONL line now, its index row
        buffered for :meth:`finalize`."""
        if not self._writable or self._finalized:
            raise StoreError("append() on a read-only or finalized store")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
        self._jsonl_fh.write(line + "\n")
        self._jsonl_fh.flush()
        metrics = record.get("metrics") or {}
        self._rows.append(
            (
                record["index"],
                record["protocol"],
                record["degree"],
                record["n_ranks"],
                record["workload"],
                record["mix"],
                record["seed"],
                record["outcome"],
                record.get("error"),
                record.get("invariant_error"),
                metrics.get("events", 0),
                metrics.get("runtime", 0.0),
                metrics.get("stranded_frames", 0),
                metrics.get("stranded_envs", 0),
                record.get("fingerprint", ""),
                line,
            )
        )

    def finalize(self, summary: Optional[Dict[str, Any]] = None) -> None:
        """Write the index in one transaction, then promote both
        ``.partial`` artifacts to their final names."""
        if not self._writable or self._finalized:
            raise StoreError("finalize() on a read-only or finalized store")
        conn = sqlite3.connect(self.db_path + ".partial")
        try:
            conn.executescript(_SCHEMA)
            conn.executemany(
                f"INSERT INTO runs ({', '.join(_COLUMNS)}) VALUES "
                f"({', '.join('?' * len(_COLUMNS))})",
                self._rows,
            )
            conn.execute(
                "INSERT INTO meta (summary) VALUES (?)",
                (json.dumps(summary or {}, sort_keys=True, default=str),),
            )
            conn.commit()
        finally:
            conn.close()
        self._jsonl_fh.flush()
        os.fsync(self._jsonl_fh.fileno())
        self._jsonl_fh.close()
        atomic_replace(self.jsonl_path + ".partial", self.jsonl_path)
        atomic_replace(self.db_path + ".partial", self.db_path)
        self._finalized = True

    def abandon(self) -> None:
        """Drop the ``.partial`` artifacts (nothing final is ever touched)."""
        if self._finalized or not self._writable:
            return
        if self._jsonl_fh is not None:
            self._jsonl_fh.close()
        for p in (self.jsonl_path + ".partial", self.db_path + ".partial"):
            if os.path.exists(p):
                os.remove(p)
        self._finalized = True

    # -------------------------------------------------------------- reading
    @classmethod
    def open(cls, base: str) -> "SweepStore":
        """Read access to a finalized store."""
        jsonl, db = base + ".jsonl", base + ".sqlite"
        missing = [p for p in (jsonl, db) if not os.path.exists(p)]
        if missing:
            hint = ""
            if any(os.path.exists(p + ".partial") for p in missing):
                hint = " (a .partial artifact exists — the sweep never finalized)"
            raise StoreError(f"no finalized store at {base}: missing {missing}{hint}")
        conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
        return cls(base, _writable=False, _conn=conn)

    def sql(self, query: str, params: Sequence[Any] = ()) -> List[Tuple]:
        """Raw SQL against the index (see module docstring for the schema)."""
        return list(self._conn.execute(query, params))

    def records(self, where: str = "", params: Sequence[Any] = ()) -> List[Dict[str, Any]]:
        """Full run records (parsed JSON), optionally filtered, in idx order."""
        clause = f" WHERE {where}" if where else ""
        rows = self._conn.execute(
            f"SELECT record FROM runs{clause} ORDER BY idx", params
        )
        return [json.loads(r[0]) for r in rows]

    @property
    def summary(self) -> Dict[str, Any]:
        row = self._conn.execute("SELECT summary FROM meta").fetchone()
        return json.loads(row[0]) if row else {}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc) -> None:
        if self._writable and not self._finalized:
            self.abandon()
        elif not self._writable:
            self.close()
