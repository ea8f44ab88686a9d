"""Unit + property tests for payload handling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mpi.datatypes import Phantom, combine, copy_payload, nbytes_of


class TestPhantom:
    def test_size(self):
        assert Phantom(128).nbytes == 128

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Phantom(-1)

    def test_equality_and_hash(self):
        assert Phantom(5) == Phantom(5)
        assert Phantom(5) != Phantom(6)
        assert hash(Phantom(5)) == hash(Phantom(5))


class TestNbytes:
    @pytest.mark.parametrize(
        "obj,expected",
        [
            (None, 0),
            (Phantom(100), 100),
            (b"abcd", 4),
            (bytearray(7), 7),
            (3, 8),
            (3.14, 8),
            ([Phantom(10), b"xy"], 12),
        ],
    )
    def test_sizes(self, obj, expected):
        assert nbytes_of(obj) == expected

    def test_ndarray(self):
        assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            nbytes_of(object())

    def test_bool_is_sized_as_an_int(self):
        # bool is an int subclass, so the numeric branch sizes it; a
        # 1-byte MPI_C_BOOL sizing would be a declared fingerprint change.
        assert nbytes_of(True) == nbytes_of(False) == 8
        assert nbytes_of(np.bool_(True)) == 8
        assert nbytes_of([True, 1.0]) == 16


class TestCopy:
    def test_ndarray_copied_not_aliased(self):
        a = np.arange(4.0)
        c = copy_payload(a)
        a[0] = 99
        assert c[0] == 0.0

    def test_immutables_pass_through(self):
        assert copy_payload(b"x") == b"x"
        p = Phantom(4)
        assert copy_payload(p) is p

    def test_nested_list(self):
        a = [np.arange(3.0), 5]
        c = copy_payload(a)
        a[0][0] = 42
        assert c[0][0] == 0.0


class TestCombine:
    def test_sum(self):
        assert combine("sum", 2, 3) == 5

    def test_max_min_scalars(self):
        assert combine("max", 2, 3) == 3
        assert combine("min", 2, 3) == 2

    def test_prod(self):
        assert combine("prod", 4, 5) == 20

    def test_arrays_elementwise(self):
        a, b = np.array([1.0, 5.0]), np.array([4.0, 2.0])
        assert np.array_equal(combine("max", a, b), np.array([4.0, 5.0]))

    def test_phantom_absorbs(self):
        out = combine("sum", Phantom(10), Phantom(20))
        assert out == Phantom(20)
        assert combine("sum", Phantom(10), 5.0) == Phantom(10)

    def test_lists_combine_elementwise(self):
        assert combine("sum", [1, 2], [10, 20]) == [11, 22]

    def test_list_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine("sum", [1], [1, 2])

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            combine("xor", 1, 2)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=8))
    def test_sum_associativity_over_list(self, xs):
        # fold order must not change the result for commutative float-safe ops
        left = xs[0]
        for x in xs[1:]:
            left = combine("max", left, x)
        assert left == max(xs)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    def test_phantom_combine_takes_max_size(self, a, b):
        assert combine("sum", Phantom(a), Phantom(b)).nbytes == max(a, b)
