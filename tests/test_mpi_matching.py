"""Unit + property tests for MPI message matching."""

from hypothesis import given, settings, strategies as st

from repro.mpi.matching import MatchEngine
from repro.mpi.pml import PmlRecvRequest
from repro.network.fabric import Frame
from repro.mpi.status import ANY_SOURCE, ANY_TAG


def env(ctx=("w",), src=0, tag=0, seq=0):
    return Frame(
        kind="eager",
        ctx=ctx,
        src_rank=src,
        tag=tag,
        world_src=src,
        world_dst=1,
        seq=seq,
        nbytes=8,
        data=None,
        src=src,
        dst=1,
    )


def recv(ctx=("w",), source=0, tag=0):
    return PmlRecvRequest(ctx, source, tag)


class TestBasicMatching:
    def test_exact_match(self):
        m = MatchEngine()
        r = recv(source=3, tag=7)
        m.post(r)
        assert m.arrive(env(src=3, tag=7)) is r

    def test_source_mismatch_goes_unexpected(self):
        m = MatchEngine()
        m.post(recv(source=3, tag=7))
        assert m.arrive(env(src=4, tag=7)) is None
        assert m.unexpected_count == 1

    def test_tag_mismatch_goes_unexpected(self):
        m = MatchEngine()
        m.post(recv(source=3, tag=7))
        assert m.arrive(env(src=3, tag=8)) is None

    def test_ctx_mismatch(self):
        m = MatchEngine()
        m.post(recv(ctx=("a",)))
        assert m.arrive(env(ctx=("b",))) is None

    def test_any_source_matches(self):
        m = MatchEngine()
        r = recv(source=ANY_SOURCE, tag=7)
        m.post(r)
        assert m.arrive(env(src=99, tag=7)) is r

    def test_any_tag_matches(self):
        m = MatchEngine()
        r = recv(source=1, tag=ANY_TAG)
        m.post(r)
        assert m.arrive(env(src=1, tag=42)) is r

    def test_post_matches_unexpected_first(self):
        m = MatchEngine()
        e = env(src=2, tag=5)
        m.arrive(e)
        assert m.post(recv(source=2, tag=5)) is e
        assert len(m.unexpected) == 0


class TestOrdering:
    def test_posted_receives_match_in_post_order(self):
        m = MatchEngine()
        r1, r2 = recv(source=ANY_SOURCE), recv(source=ANY_SOURCE)
        m.post(r1)
        m.post(r2)
        assert m.arrive(env(src=1)) is r1
        assert m.arrive(env(src=2)) is r2

    def test_unexpected_matched_in_arrival_order(self):
        m = MatchEngine()
        e1, e2 = env(src=1, seq=0), env(src=1, seq=1)
        m.arrive(e1)
        m.arrive(e2)
        assert m.post(recv(source=1)) is e1
        assert m.post(recv(source=1)) is e2

    def test_first_compatible_wins_not_first_posted(self):
        m = MatchEngine()
        specific = recv(source=5)
        m.post(specific)
        anyrecv = recv(source=ANY_SOURCE)
        m.post(anyrecv)
        assert m.arrive(env(src=3)) is anyrecv
        assert m.arrive(env(src=5)) is specific


class TestCancelAndProbe:
    def test_cancel_posted(self):
        m = MatchEngine()
        r = recv()
        m.post(r)
        assert m.cancel(r)
        assert m.arrive(env()) is None

    def test_cancel_after_match_fails(self):
        m = MatchEngine()
        r = recv()
        m.post(r)
        m.arrive(env())
        assert not m.cancel(r)

    def test_probe_finds_unexpected(self):
        m = MatchEngine()
        m.arrive(env(src=2, tag=9))
        st_ = m.probe(("w",), ANY_SOURCE, 9)
        assert st_ is not None and st_.src_rank == 2

    def test_probe_misses(self):
        m = MatchEngine()
        m.arrive(env(src=2, tag=9))
        assert m.probe(("w",), 3, ANY_TAG) is None

    def test_stats_counters(self):
        m = MatchEngine()
        m.arrive(env())
        m.arrive(env(seq=1))
        m.post(recv(source=ANY_SOURCE))
        s = m.stats()
        assert s["unexpected_count"] == 2
        assert s["unexpected_peak"] == 2
        assert s["unexpected_pending"] == 1


@settings(max_examples=60)
@given(
    msgs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=20
    )
)
def test_property_every_message_matched_exactly_once(msgs):
    """Posting one compatible wildcard receive per message drains the queue."""
    m = MatchEngine()
    for src, tag in msgs:
        m.arrive(env(src=src, tag=tag))
    matched = []
    for _ in msgs:
        got = m.post(recv(source=ANY_SOURCE, tag=ANY_TAG))
        assert got is not None
        matched.append((got.src_rank, got.tag))
    assert matched == msgs  # arrival order preserved
    assert len(m.unexpected) == 0 and len(m.posted) == 0


@settings(max_examples=60)
@given(
    order=st.permutations(list(range(6))),
)
def test_property_specific_receives_match_their_source(order):
    """With per-source receives, matching pairs sources correctly whatever
    the arrival interleaving."""
    m = MatchEngine()
    for src in order:
        m.arrive(env(src=src, tag=1))
    for src in range(6):
        got = m.post(recv(source=src, tag=1))
        assert got is not None and got.src_rank == src
