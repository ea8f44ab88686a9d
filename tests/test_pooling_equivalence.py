"""The arena-pooled engine against the recorded no-pooling specification.

PR 3 extended the Frame/Envelope arenas to every envelope kind (eager/rts/
data cross the interposition surface under the explicit ownership contract
— see :mod:`repro.mpi.pml`).  Recycling is a host-side optimisation and
must be *observationally invisible*.  Until PR 16 ``Job(pooling=False)``
bypassed both arenas (every acquire constructed a fresh object) and this
suite ran each randomized configuration under both modes.

``tests/data/spec_fingerprints.jsonl`` holds the answers of that mode's
last run: 217 seeded configurations — this suite's p2p (60), rendezvous
(40) and collectives (60) parameter spaces plus the ``mixed_traffic`` space
of ``test_working_set``/``test_footprint`` (57: crash-free, through a
fail-stop, and wedged) across all five protocols — executed on commit
0e78e89 under the full spec stack (``pooling=False, shared_state=False,
interning=False, arena_trim=False, matching="linear"``) and under each of
those five flags alone.  The recorder checked, line by line before
writing, that all six spec stacks and the commit's default stack produced
the same fingerprint (``tests.conftest.fingerprint``: everything but the
arena-recycling counters ``env_allocated``/``env_pool_size`` — plus the
trim count, whose trimmer is since deleted — and the intern-table lookup
count, the only observables the modes moved).  The corpus records the
specification's answers, so it is never re-recorded from the engine under
test: a declared semantic change re-derives it together with the
determinism goldens.

All five protocols are exercised: native (no filter, no hooks), sdr (ack
hooks + ctrl recycling), mirror (duplicate drops release borrowed
envelopes), leader (deferred receives inflate the unexpected queue, whose
entries the arena owns), and redmpi (per-send hash ctrl traffic + digest
checks inside the borrow window).
"""

from __future__ import annotations

from tests.conftest import assert_matches_corpus, load_corpus

CORPUS = load_corpus("spec_fingerprints.jsonl")
SPEC = "no-pooling spec"


def test_p2p_pooling_equivalence():
    assert_matches_corpus(CORPUS, "p2p", SPEC)


def test_rendezvous_pooling_equivalence():
    assert_matches_corpus(CORPUS, "rendezvous", SPEC)


def test_collective_pooling_equivalence():
    assert_matches_corpus(CORPUS, "collectives", SPEC)
