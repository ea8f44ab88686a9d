"""The worker pool's crash story: every way a worker can end unasked
surfaces as WorkerDied on the parent's next recv/send, with a reason."""

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.sim.pool import Pool, WorkerDied


def _echo(conn):
    while True:
        msg = conn.recv()
        if msg[0] == "exit":
            return
        if msg[0] == "raise":
            raise ValueError(msg[1])
        if msg[0] == "die":
            os.kill(os.getpid(), signal.SIGKILL)
        if msg[0] == "flood":  # 6.4 MB of replies: blocks on the full pipe
            for _ in range(100):
                conn.send(b"x" * 65536)
        conn.send(msg)


def test_echo_ready_and_close():
    with Pool(_echo) as pool:
        for wid in (3, 5):
            pool.spawn(wid)
            pool.send(wid, ("hello", wid))
        got = {}
        while len(got) < 2:
            for wid in pool.ready():
                got[wid] = pool.recv(wid)
        assert got == {3: ("hello", 3), 5: ("hello", 5)}
        proc = pool._procs[3]
        pool.retire(3)
        assert proc.exitcode == 0  # asked to exit: a clean exit code
    assert mp.active_children() == []


def test_target_exception_names_the_traceback():
    with Pool(_echo) as pool:
        pool.spawn(0)
        pool.send(0, ("raise", "boom"))
        with pytest.raises(WorkerDied) as died:
            pool.recv(0)
        assert died.value.wid == 0
        assert "Traceback" in died.value.reason and "ValueError: boom" in died.value.reason


def test_kill_surfaces_on_recv_and_on_send():
    with Pool(_echo) as pool:
        pool.spawn(0)
        pool.spawn(1)
        pool.send(0, ("die",))
        assert pool.ready() == [0]  # the EOF wakes the parent; worker 1 stays quiet
        with pytest.raises(WorkerDied, match="worker 0 died: exit code -9"):
            pool.recv(0)
        pool.send(1, ("die",))
        assert pool.ready() == [1]
        with pytest.raises(WorkerDied, match="worker 1 died: exit code -9"):
            pool.send(1, ("hello",))  # the write end is gone: a broken pipe
    assert mp.active_children() == []


def test_leaving_through_an_exception_terminates_at_once():
    # A worker blocked on a full pipe never reads an exit ask; the pool
    # must not wait out a grace period for it.
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="interrupted"):
        with Pool(_echo) as pool:
            for wid in (0, 1):
                pool.spawn(wid)
                pool.send(wid, ("flood",))
            pool.ready()
            raise RuntimeError("interrupted")
    assert time.monotonic() - t0 < 5
    assert mp.active_children() == []
