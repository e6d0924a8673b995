"""What the package has checked or cached cannot change: every array that a
system, a quadrature rule, a dataset or a Gramians record keeps is
read-only, and so is every array it is a view of."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import random_stable_system
from lqobt import (
    LqoSystem,
    QuadratureRule,
    collect_freq_data,
    collect_time_data,
    compute_gramians,
    log_trapezoid,
    lqo_qbt,
    numcore,
)


class AddressOnly:
    """Exposes the memory of an array through ``__array_interface__``
    alone, without the buffer protocol."""

    def __init__(self, arr):
        self._arr, self.__array_interface__ = arr, arr.__array_interface__


def _copy(sys_):
    return LqoSystem(sys_.A.copy(), sys_.B.copy(), sys_.C.copy(),
                     [M.copy() for M in sys_.Ms])


def test_writes_through_the_callers_arrays_raise():
    ref = random_stable_system(np.random.default_rng(151), n=6, m=1, p=1)
    # a system built from a view of the caller's matrix and from a vector B
    full, b = ref.A.copy(), ref.B[:, 0].copy()
    sys_ = LqoSystem(full[:, :], b, ref.C.copy(), ref.Ms)
    record = compute_gramians(sys_)
    with pytest.raises(ValueError, match="read-only"):
        full[0, 0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        b[0] += 1.0
    assert np.array_equal(sys_.A, ref.A) and np.array_equal(sys_.B, ref.B)
    # so the kept record is that of the system's matrices as they are
    fresh = compute_gramians(_copy(sys_))
    assert compute_gramians(sys_) is record
    for name in ("P", "Q1", "Q2", "Q"):
        assert np.array_equal(getattr(record, name), getattr(fresh, name)), name
    # memory numpy cannot lock is copied, and the system keeps its values
    buffer = bytearray(ref.A.tobytes())
    over = LqoSystem(np.frombuffer(buffer).reshape(6, 6), ref.B, ref.C, ref.Ms)
    buffer[:] = bytes(len(buffer))
    assert np.array_equal(over.A, ref.A)
    # a rule built from a view stays strictly increasing
    nodes = np.array([0.1, 0.5, 2.0, 8.0])
    rule = QuadratureRule(nodes[:], np.ones(4))
    with pytest.raises(ValueError, match="read-only"):
        nodes[2] = 0.01
    assert np.all(np.diff(rule.nodes) > 0.0)


def test_memory_owned_without_a_buffer_is_copied():
    # an owner that exposes its memory only through __array_interface__
    # has no buffer to ask whether it can change, so the kept array is a
    # read-only copy, and the caller's array is neither locked nor written
    original = np.arange(6.0)
    view = np.asarray(AddressOnly(original))
    kept = numcore._read_only(view)
    assert not kept.flags.writeable and not np.shares_memory(kept, original)
    assert original.flags.writeable
    assert np.array_equal(original, np.arange(6.0))
    original[0] = -1.0
    assert np.array_equal(kept, np.arange(6.0))


def test_datasets_keep_their_derived_arrays_and_fields():
    sys_ = random_stable_system(np.random.default_rng(157), n=5)
    rule_p, rule_q = log_trapezoid(0.05, 20.0, 7), log_trapezoid(0.07, 28.0, 6)
    ds_t = collect_time_data(sys_, rule_p, rule_q)
    ds_f = collect_freq_data(sys_, rule_p, rule_q)
    want = lqo_qbt(ds_f, 4)
    for ds in (ds_t, ds_f):
        for name in ("p_nodes", "p_sqrt_weights", "q_nodes", "q_sqrt_weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ds, name)[0] = 1.0
    got = lqo_qbt(ds_f, 4)
    for a, b in zip((got.A, got.B, got.C, *got.Ms), (want.A, want.B, want.C, *want.Ms)):
        assert np.array_equal(a, b)
    # a checked field cannot be swapped; replace makes a new, checked dataset
    for name, value in (("h1_in", ds_t.h1_in + 1j), ("rule_p", rule_q), ("p", 2),
                        ("p_sqrt_weights", 2.0 * ds_t.p_sqrt_weights)):
        with pytest.raises(FrozenInstanceError):
            setattr(ds_t, name, value)
    with pytest.raises(ValueError, match="^h1_in must be an array of real numbers"):
        replace(ds_t, h1_in=ds_t.h1_in + 1j)
