"""One worker pool: a pipe per worker and one crash story.

The sweep executor (:mod:`repro.harness.sweep`) and the shard runner
(:mod:`repro.sim.shard`) share it; it is the only code that starts a
process.  A worker runs ``target(conn, *args)`` over its end of a duplex
pipe.  Whatever ends a worker unasked — ``kill -9``, an OOM kill, a
segfault, an exception out of *target* — surfaces one way: the parent's
next :meth:`Pool.recv` or :meth:`Pool.send` for it raises
:class:`WorkerDied` with the exit code or the worker's traceback.  There
is no poll and no respawn policy here; the caller decides what a death
costs.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from contextlib import suppress
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Pool", "WorkerDied"]


class WorkerDied(RuntimeError):
    """A worker ended unasked; *reason* is its exit code or its traceback."""

    def __init__(self, wid: int, reason: str) -> None:
        super().__init__(f"worker {wid} died: {reason}")
        self.wid = wid
        self.reason = reason


class _Raised(str):
    """The traceback a worker's *target* raised, as its last message."""


def _entry(target: Callable[..., None], conn, args: tuple) -> None:
    try:
        target(conn, *args)
    except BaseException:  # report, never leave the parent guessing
        with suppress(OSError):  # unless the parent is gone
            conn.send(_Raised(traceback.format_exc()))
        raise


class Pool:
    """Workers running *target*, forked where the platform can fork (else
    spawned), addressed by caller-chosen ids.  As a context manager it
    closes on the way out — at once when leaving through an exception."""

    def __init__(self, target: Callable[..., None]) -> None:
        self._ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._target = target
        self._conns: Dict[int, Any] = {}
        self._procs: Dict[int, Any] = {}

    def spawn(self, wid: int, *args: Any) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(target=_entry, args=(self._target, child, args), daemon=True)
        proc.start()
        child.close()  # before the next fork: a death is then an EOF on ours
        self._conns[wid], self._procs[wid] = parent, proc

    def send(self, wid: int, msg: Any) -> None:
        try:
            self._conns[wid].send(msg)
        except OSError:
            raise self._died(wid, None) from None

    def recv(self, wid: int) -> Any:
        try:
            msg = self._conns[wid].recv()
        except (EOFError, OSError):
            raise self._died(wid, None) from None
        if isinstance(msg, _Raised):
            raise self._died(wid, str(msg))
        return msg

    def ready(self) -> List[int]:
        """Block until some worker has a message (or has died); their ids."""
        wid_of = {conn: wid for wid, conn in self._conns.items()}
        return [wid_of[conn] for conn in wait(list(wid_of))]

    def retire(self, *wids: int, now: bool = False) -> None:
        """Retire workers *wids*, every ask before any reaping.  The ask is
        ``("exit",)``, not a close: workers forked later hold this end of
        the pipe too.  *now* skips the asks and terminates — a worker
        part-way through a task reads no ask until its replies are drained."""
        for wid in () if now else wids:
            with suppress(OSError):  # already gone
                self._conns[wid].send(("exit",))
        for wid in wids:
            self._conns.pop(wid).close()
            proc = self._procs.pop(wid)
            proc.join(timeout=0.0 if now else 10.0)
            if proc.is_alive():  # hung (or hurried) worker backstop
                proc.terminate()
                proc.join()

    def close(self, now: bool = False) -> None:
        self.retire(*self._conns, now=now)

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        self.close(now=exc_type is not None)

    def _died(self, wid: int, text: Optional[str]) -> WorkerDied:
        proc = self._procs[wid]
        self.retire(wid)
        return WorkerDied(wid, text if text is not None else f"exit code {proc.exitcode}")
