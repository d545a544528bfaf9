"""The one test that needs scipy: the matrix exponential against
scipy.linalg.expm as an independent oracle.

The runtime is numpy-only, and every other test module runs without scipy;
``pytest --ignore=tests/test_scipy_oracle.py`` is the whole suite of an
environment that lacks it.
"""

import scipy.linalg
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from qindirect.qalg import dagger, mat_exp

from test_qalg import st_c22, st_c44


@given(st.one_of(st_c22, st_c44))
def test_mat_exp_matches_scipy(h):
    # mat_exp accepts only skew-Hermitian input, so the oracle sees the
    # skew-Hermitian part of a general complex matrix, on one and two qubits
    a = 0.5 * (h - dagger(h))
    assert_allclose(mat_exp(a), scipy.linalg.expm(a), atol=1e-12)
