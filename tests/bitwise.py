"""Byte-for-byte comparison of arrays, for the tests that require equal float bits.

`np.array_equal` treats -0.0 and +0.0 as equal (and NaN as unequal to
itself); these tests need the same dtype, shape and bytes.
"""

import numpy as np


def assert_same_bits(got, want, what):
    if want is None:
        assert got is None, f"{what}: a gradient where the tape made none"
        return
    assert got is not None, f"{what}: no gradient where the tape made one"
    assert got.dtype == want.dtype and got.shape == want.shape, f"{what}: {got.dtype}{got.shape} vs {want.dtype}{want.shape}"
    assert got.tobytes() == want.tobytes(), f"{what}: bits differ, max abs diff {np.max(np.abs(got - want))}"
