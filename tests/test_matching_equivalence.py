"""Property tests: indexed MatchEngine ≡ LinearMatchEngine.

The indexed engine replaces the seed engine's linear scans with pattern
lanes over the pending entries only; MPI semantics (non-overtaking, first-compatible-pair, wildcard
receives) must be preserved *exactly* — the pairing decisions of the two
engines on any operation stream have to be identical, because matching
order is observable through virtual timestamps and ANY_SOURCE results.

The streams below interleave arrivals, posts (with ANY_SOURCE/ANY_TAG in
all four combinations), cancels and probes over multiple contexts, and
compare every return value plus the pending-queue contents and stats after
every step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.mpi.matching import LinearMatchEngine, MatchEngine
from repro.mpi.pml import Envelope, PmlRecvRequest
from repro.mpi.status import ANY_SOURCE, ANY_TAG


def make_env(ctx, src, tag, seq):
    return Envelope(
        kind="eager",
        ctx=ctx,
        src_rank=src,
        tag=tag,
        world_src=src,
        world_dst=1,
        seq=seq,
        nbytes=8,
        data=None,
        src_phys=src,
        dst_phys=1,
    )


CTXS = [("w", "p"), ("c", 1)]
SRC = st.integers(0, 2)
TAG = st.integers(0, 2)
WSRC = st.one_of(st.just(ANY_SOURCE), st.integers(0, 2))
WTAG = st.one_of(st.just(ANY_TAG), st.integers(0, 2))
CTX = st.sampled_from(CTXS)

# op encodings: ("arrive", ctx, src, tag) | ("post", ctx, src?, tag?)
#               | ("cancel", k) — cancel the k-th still-pending posted recv
#               | ("probe", ctx, src?, tag?)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), CTX, SRC, TAG),
        st.tuples(st.just("post"), CTX, WSRC, WTAG),
        st.tuples(st.just("cancel"), st.integers(0, 5)),
        st.tuples(st.just("probe"), CTX, WSRC, WTAG),
    ),
    min_size=1,
    max_size=60,
)


def snapshot(engine):
    return (
        [id(r) for r in engine.posted],
        [id(e) for e in engine.unexpected],
        engine.stats(),
    )


def replay(fast, ref, ops):
    """Drive both engines with *ops*, comparing every return value, the
    pending queues and the stats after every step.  Both engines see the
    *same* request/envelope instances, so identity comparison of results is
    meaningful."""
    pending_recvs = list(ref.posted)
    seq = 0
    for op in ops:
        if op[0] == "arrive":
            _, ctx, src, tag = op
            env = make_env(ctx, src, tag, seq)
            seq += 1
            got_fast = fast.arrive(env)
            got_ref = ref.arrive(env)
            assert got_fast is got_ref
            if got_fast is not None and got_fast in pending_recvs:
                pending_recvs.remove(got_fast)
        elif op[0] == "post":
            _, ctx, src, tag = op
            recv = PmlRecvRequest(ctx, src, tag)
            got_fast = fast.post(recv)
            got_ref = ref.post(recv)
            assert got_fast is got_ref
            if got_fast is None:
                pending_recvs.append(recv)
        elif op[0] == "cancel":
            _, k = op
            if not pending_recvs:
                continue
            recv = pending_recvs[k % len(pending_recvs)]
            ok_fast = fast.cancel(recv)
            ok_ref = ref.cancel(recv)
            assert ok_fast == ok_ref
            if ok_fast:
                pending_recvs.remove(recv)
        else:  # probe
            _, ctx, src, tag = op
            assert fast.probe(ctx, src, tag) is ref.probe(ctx, src, tag)
        assert snapshot(fast) == snapshot(ref), "queues diverged mid-stream"
        # Live-only: every lane holds a pending entry (a parked envelope
        # sits in at most one lane per pattern class).
        lanes, _cells = fast.footprint()
        assert lanes <= len(ref.posted) + 4 * len(ref.unexpected)


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_indexed_engine_matches_linear_reference(ops):
    replay(MatchEngine(), LinearMatchEngine(), ops)


@settings(max_examples=300, deadline=None)
@given(
    parked=st.lists(st.tuples(st.just("arrive"), CTX, SRC, TAG), min_size=1, max_size=12),
    drain=st.lists(
        st.tuples(st.integers(0, 11), st.booleans(), st.booleans(), st.booleans()), max_size=24
    ),
    ops=OPS,
)
def test_class_first_used_after_arrivals_backfills_in_arrival_order(parked, drain, ops):
    """No pattern class is indexed while the envelopes arrive (nothing was
    ever posted), so the first receive or probe of each class must find
    them through its backfill, in arrival order.  The drain then aims
    receives and probes at the parked envelopes' own patterns, widened at
    random and in random order — claims through a narrow lane of envelopes
    sitting mid-lane in a wider one — interleaved with arbitrary arrivals,
    posts, cancels and probes."""
    fast, ref = MatchEngine(), LinearMatchEngine()
    replay(fast, ref, parked)
    assert fast.footprint() == (0, len(parked)), "indexed a class nobody asked for"
    aimed = []
    for i, any_src, any_tag, as_probe in drain:
        _, ctx, src, tag = parked[i % len(parked)]
        aimed.append(
            (
                "probe" if as_probe else "post",
                ctx,
                ANY_SOURCE if any_src else src,
                ANY_TAG if any_tag else tag,
            )
        )
    both = min(len(aimed), len(ops))
    stream = [op for pair in zip(aimed, ops) for op in pair] + aimed[both:] + ops[both:]
    replay(fast, ref, stream)


@settings(max_examples=150, deadline=None)
@given(
    arrivals=st.lists(st.tuples(SRC, TAG), min_size=1, max_size=25),
    wild=st.lists(st.booleans(), min_size=25, max_size=25),
)
def test_wildcard_drain_preserves_arrival_order(arrivals, wild):
    """Draining with a mix of specific and wildcard receives pairs both
    engines identically and respects non-overtaking per pattern."""
    fast, ref = MatchEngine(), LinearMatchEngine()
    ctx = CTXS[0]
    for i, (src, tag) in enumerate(arrivals):
        env = make_env(ctx, src, tag, i)
        assert fast.arrive(env) is ref.arrive(env)
    for i, (src, tag) in enumerate(arrivals):
        if wild[i]:
            recv = PmlRecvRequest(ctx, ANY_SOURCE, ANY_TAG)
        else:
            recv = PmlRecvRequest(ctx, src, tag)
        assert fast.post(recv) is ref.post(recv)
    assert snapshot(fast) == snapshot(ref)


def test_cancelled_receive_never_matches():
    fast = MatchEngine()
    ctx = CTXS[0]
    r1 = PmlRecvRequest(ctx, ANY_SOURCE, 1)
    r2 = PmlRecvRequest(ctx, ANY_SOURCE, 1)
    fast.post(r1)
    fast.post(r2)
    assert fast.cancel(r1)
    assert not fast.cancel(r1), "double-cancel must report failure"
    env = make_env(ctx, 0, 1, 0)
    assert fast.arrive(env) is r2, "tombstoned receive matched"
    assert fast.stats()["posted_pending"] == 0


def test_tombstones_do_not_leak_into_views():
    fast = MatchEngine()
    ctx = CTXS[0]
    envs = [make_env(ctx, s, 0, s) for s in range(3)]
    for env in envs:
        fast.arrive(env)
    fast.probe(ctx, ANY_SOURCE, ANY_TAG)  # index the widest class too
    # Claim the middle one via a specific receive: it must leave the
    # wildcard lane, where it sits behind an older envelope.
    got = fast.post(PmlRecvRequest(ctx, 1, 0))
    assert got is envs[1]
    assert fast.unexpected == [envs[0], envs[2]]
    assert fast.probe(ctx, ANY_SOURCE, ANY_TAG) is envs[0]
    assert fast.stats()["unexpected_pending"] == 2
    assert fast.post(PmlRecvRequest(ctx, ANY_SOURCE, ANY_TAG)) is envs[0]
    assert fast.post(PmlRecvRequest(ctx, ANY_SOURCE, ANY_TAG)) is envs[2]
    assert fast.post(PmlRecvRequest(ctx, ANY_SOURCE, ANY_TAG)) is None
    assert fast.footprint() == (1, 3)  # the pending receive, its lane and cursor


def test_never_drained_lane_stays_bounded_and_ordered():
    """A lane that always keeps an entry pending never leaves its dict, so
    its consumed prefix must be cut: footprint flat over 2000 rounds, order
    still the reference engine's."""
    fast, ref = MatchEngine(), LinearMatchEngine()
    ctx = CTXS[0]
    seq = 0
    sizes = []
    for rnd in range(2000):
        # two arrive, one is claimed: the (ctx, 0, ANY) lane grows by one live
        # entry per round for the first 40 rounds, then holds steady
        n_claims = 1 if rnd < 40 else 2
        for _ in range(2):
            env = make_env(ctx, 0, seq % 3, seq)
            seq += 1
            assert fast.arrive(env) is ref.arrive(env) is None
        for _ in range(n_claims):
            recv = PmlRecvRequest(ctx, 0, ANY_TAG)
            assert fast.post(recv) is ref.post(recv)
        sizes.append(fast.footprint())
    assert snapshot(fast) == snapshot(ref)
    assert len(ref.unexpected) == 40
    assert max(sizes[100:]) == max(sizes[1000:]), "lane footprint grew with the run"
    lanes, cells = max(sizes)
    assert lanes == 1 and cells <= 40 + 2 * 40 + 34


def test_cancel_mid_lane_and_lane_removal():
    fast = MatchEngine()
    ctx = CTXS[0]
    recvs = [PmlRecvRequest(ctx, 1, 1) for _ in range(3)]
    for r in recvs:
        fast.post(r)
    assert fast.cancel(recvs[1])
    assert fast.posted == [recvs[0], recvs[2]]
    assert fast.arrive(make_env(ctx, 1, 1, 0)) is recvs[0]
    assert fast.cancel(recvs[2])
    assert fast.footprint() == (0, 0), "a cancelled-empty lane stayed indexed"
    assert not fast.cancel(recvs[2])
