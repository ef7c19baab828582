"""Tests for knot schedules, interpolation, and the expansion matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotmpc.param import (
    KnotSchedule,
    interp_coeffs,
    interpolation_matrix,
)

W_T5_P3 = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0],
    ]
)


def test_knot_spacing_values():
    assert KnotSchedule(50, 5).spacing == pytest.approx(12.25)
    assert KnotSchedule(5, 3).spacing == pytest.approx(2.0)
    assert KnotSchedule(10, 10).spacing == pytest.approx(1.0)


def test_interp_coeffs_basic():
    idx1, idx2, c = interp_coeffs(3, 2.0)
    assert (idx1, idx2) == (1, 2)
    assert c == pytest.approx(0.5)
    idx1, idx2, c = interp_coeffs(0, 2.0)
    assert (idx1, idx2, c) == (0, 0, 0.0)


def test_interp_coeffs_snaps_near_grid():
    # positions within 1e-9 of an integer collapse onto the knot
    idx1, idx2, c = interp_coeffs(2, 1.00000000005)
    assert (idx1, idx2, c) == (2, 2, 0.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        KnotSchedule(T=10, p=0)
    with pytest.raises(ValueError):
        KnotSchedule(T=10, p=11)
    with pytest.raises(ValueError):
        KnotSchedule(T=0, p=1)


def test_schedule_single_knot():
    sched = KnotSchedule(T=8, p=1)
    assert sched.spacing is None
    assert sched.coeffs(5) == (0, 0, 0.0)
    W = interpolation_matrix(sched)
    np.testing.assert_array_equal(W, np.ones((8, 1)))


def test_schedule_coeffs_range_check():
    sched = KnotSchedule(T=10, p=4)
    with pytest.raises(ValueError):
        sched.coeffs(-1)
    with pytest.raises(ValueError):
        sched.coeffs(10)


def test_interpolation_matrix_frozen_case():
    np.testing.assert_allclose(interpolation_matrix(KnotSchedule(T=5, p=3)), W_T5_P3, atol=1e-12)


def test_interpolation_matrix_identity_when_dense():
    np.testing.assert_allclose(interpolation_matrix(KnotSchedule(T=7, p=7)), np.eye(7), atol=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 120).flatmap(lambda T: st.tuples(st.just(T), st.integers(1, T))))
def test_interpolation_matrix_invariants(Tp):
    T, p = Tp
    W = interpolation_matrix(KnotSchedule(T=T, p=p))
    assert W.shape == (T, p)
    assert np.all(W >= 0)
    np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
    # at most two knots blend into any one stage
    assert np.max(np.count_nonzero(W, axis=1)) <= 2
    # the endpoints are pinned to the first/last knot
    np.testing.assert_allclose(W[0], np.eye(p)[0], atol=1e-12)
    if p >= 2:
        np.testing.assert_allclose(W[-1], np.eye(p)[p - 1], atol=1e-12)


def test_interpolation_matrix_rows_match_coeffs():
    # the vectorized W carries exactly the per-step weights of coeffs(k)
    for T in range(1, 41):
        for p in range(1, T + 1):
            sched = KnotSchedule(T=T, p=p)
            W = interpolation_matrix(sched)
            assert W.shape == (T, p)
            for k in range(T):
                idx1, idx2, c = sched.coeffs(k)
                row = np.zeros(p)
                row[idx1] += 1.0 - c
                if c > 0.0:
                    row[idx2] += c
                np.testing.assert_array_equal(W[k], row, err_msg=f"T={T} p={p} k={k}")
