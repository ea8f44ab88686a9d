"""Unit tests for named deterministic random streams."""

import numpy as np

from repro.sim.rng import RngRegistry


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
