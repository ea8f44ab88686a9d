"""The runtime ownership guard's switch, seen from the hook surface.

Hooks (``on_match`` / ``on_recv_complete``) are plain lists: an envelope is
borrowed for the length of the call and never held, so there is nothing to
audit there.  The guard (``REPRO_FILTER_GUARD``) wraps ``incoming_filter``
alone (``tests/test_footprint.py`` pins that wrapper); a guarded clean run
must still match an unguarded one.
"""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.core.interpose import filter_guard_enabled, set_filter_guard
from repro.harness.runner import Job, cluster_for


def pingpong(mpi, rounds=4):
    peer = 1 - mpi.rank
    acc = 0.0
    for k in range(rounds):
        if mpi.rank == 0:
            yield from mpi.send(np.array([float(k)]), dest=peer, tag=5)
            got, _ = yield from mpi.recv(source=peer, tag=5)
        else:
            got, _ = yield from mpi.recv(source=peer, tag=5)
            yield from mpi.send(got, dest=peer, tag=5)
        acc += float(got[0])
    return acc


def _sdr_job():
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    return Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))


@pytest.fixture
def guard():
    previous = set_filter_guard(True)
    yield
    set_filter_guard(previous)


class TestGuardMechanics:
    def test_flag_round_trip(self):
        previous = set_filter_guard(True)
        try:
            assert filter_guard_enabled()
            assert set_filter_guard(False) is True
            assert not filter_guard_enabled()
        finally:
            set_filter_guard(previous)


class TestBalancedRetain:
    def test_guarded_clean_run_matches_unguarded_results(self, guard):
        guarded = _sdr_job().launch(pingpong).run()
        set_filter_guard(False)
        plain = _sdr_job().launch(pingpong).run()
        assert guarded.app_results == plain.app_results
        assert guarded.runtime == plain.runtime
