"""Unit tests for named deterministic random streams."""

import copy
import hashlib
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for
from repro.sim.rng import RngRegistry, _seed_words

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_same_name_same_seed_reproduces():
    a = RngRegistry(seed=7).stream("x").random(5)
    b = RngRegistry(seed=7).stream("x").random(5)
    assert np.array_equal(a, b)


def test_different_names_are_independent():
    reg = RngRegistry(seed=7)
    a = reg.stream("a").random(5)
    b = reg.stream("b").random(5)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(5)
    b = RngRegistry(seed=2).stream("x").random(5)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    reg = RngRegistry()
    assert reg.stream("x") is reg.stream("x")


def test_adding_streams_does_not_shift_existing():
    reg1 = RngRegistry(seed=3)
    _ = reg1.stream("a")
    vals1 = reg1.stream("z").random(4)

    reg2 = RngRegistry(seed=3)
    _ = reg2.stream("a")
    _ = reg2.stream("b")  # extra stream created in between
    vals2 = reg2.stream("z").random(4)
    assert np.array_equal(vals1, vals2)


def test_reseed_perturbs_one_stream_only():
    reg = RngRegistry(seed=5)
    base_other = reg.stream("other").random(3)
    reg.reseed("target", seed=999)
    perturbed = reg.stream("target").random(3)

    fresh = RngRegistry(seed=5)
    assert np.array_equal(base_other, fresh.stream("other").random(3))
    assert not np.array_equal(perturbed, fresh.stream("target").random(3))


def test_untouched_fresh_and_opened_streams():
    reg = RngRegistry(seed=5)
    assert reg.untouched()  # no stream at all
    reg.stream("membership")
    reg.stream("net.faults")
    assert reg.untouched()  # opened, never drawn from


def test_untouched_is_false_after_any_draw():
    for draw in (
        lambda g: g.random(),
        lambda g: g.integers(4),
        lambda g: g.lognormal(mean=0.0, sigma=0.1),
        lambda g: g.integers(4, dtype="uint32"),  # only moves the 32-bit half-word cache
    ):
        reg = RngRegistry(seed=5)
        reg.stream("quiet")
        draw(reg.stream("noisy"))
        assert not reg.untouched()


def test_untouched_is_false_after_reseed_even_to_the_same_seed():
    reg = RngRegistry(seed=5)
    reg.reseed("target", seed=5)
    assert not reg.untouched()
    late = RngRegistry(seed=5)
    late.stream("target")
    late.reseed("target", seed=999)
    assert not late.untouched()



def _default_rng(seed, name):
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def test_streams_equal_default_rng_of_the_derived_seed():
    """Streams are built as ``Generator(PCG64(seed))``, which numpy defines
    ``default_rng(seed)`` to be: same bit-generator state, same draws."""
    reg = RngRegistry(seed=11)
    names = [f"rank{r}.noise" for r in range(50)] + ["membership", "net.faults", "net.jitter"]
    for name in names:
        ref = _default_rng(11, name)
        gen = reg.stream(name)
        assert type(gen.bit_generator) is type(ref.bit_generator)
        assert gen.bit_generator.state == ref.bit_generator.state
    assert reg.untouched()
    reseeded = reg.reseed("net.jitter", seed=999)
    assert reseeded.bit_generator.state == _default_rng(999, "net.jitter").bit_generator.state
    assert not reg.untouched()
    for name in names[:5]:
        assert np.array_equal(reg.stream(name).random(8), _default_rng(11, name).random(8))


# --------------------------------------------------------- seed-material memo
MEMO_KEYS = [
    (0, "x"), (0, "noise.r0.k1"), (-3, "membership"), (2**63 + 5, "net.faults"), (11, "campaign.faults"),
]


def test_memo_built_streams_equal_the_reference_derivation():
    """A stream built from memoized seed words has the state and draws of
    ``Generator(PCG64(int))`` of the derived seed, on a miss and on a hit."""
    for seed, name in MEMO_KEYS:
        for _ in range(2):  # the second registry hits the memo
            ref = _default_rng(seed, name)
            gen = RngRegistry(seed).stream(name)
            assert gen.bit_generator.state == ref.bit_generator.state, (seed, name)
            assert np.array_equal(gen.random(8), ref.random(8))
            reseeded, ref = RngRegistry(1).reseed(name, seed), _default_rng(seed, name)
            assert reseeded.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(reseeded.integers(1 << 40, size=8), ref.integers(1 << 40, size=8))


def test_memo_words_are_read_only():
    gen = RngRegistry(seed=5).stream("quiet")
    words = gen.bit_generator.seed_seq.generate_state(4, np.uint64)
    assert words is _seed_words("5:quiet").words
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0


def test_memo_built_generator_survives_pickle_and_deepcopy():
    gen = RngRegistry(seed=9).stream("noise.r3.k0")
    gen.random(3)
    for clone in (pickle.loads(pickle.dumps(gen)), copy.deepcopy(gen)):
        assert clone.bit_generator.state == gen.bit_generator.state
        assert np.array_equal(clone.random(4), copy.deepcopy(gen).random(4))


def test_untouched_answers_the_same_from_memo_hits():
    warm = RngRegistry(seed=21)
    warm.stream("a")
    warm.stream("b")
    reg = RngRegistry(seed=21)  # every stream below is a memo hit
    reg.stream("a")
    reg.stream("b")
    assert reg.untouched()
    reg.stream("b").random()
    assert not reg.untouched()
    assert warm.untouched()  # the shared seed words never moved


def test_table1_pass_derives_each_noise_key_once():
    """Table 1's shape (five kernels x native/sdr at one seed, 64 ranks, OS
    noise): 960 noise streams from 128 distinct (rank, replica) keys."""
    _seed_words.cache_clear()
    for _kernel in range(5):
        for protocol, degree in (("native", 1), ("sdr", 2)):
            cfg = ReplicationConfig(degree=degree, protocol=protocol)
            Job(64, cfg=cfg, cluster=cluster_for(64, degree, compute_noise=0.08), seed=3)
    info = _seed_words.cache_info()
    assert (info.misses, info.hits) == (128, 832)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs 2 MB and 9 ms per process; only a first stream loads it
    code = "import sys, repro, repro.harness.sweep; sys.exit(int('numpy.random' in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
