import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import jacobi_eig, random_hermitian
from qmeasure import linalg
from qmeasure.errors import ConvergenceFailure, DimensionMismatch, NotHermitian
from qmeasure.measurement import spectral_decompose

RT2 = 1.0 / math.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_mat_mul_pauli_y_squares_to_identity():
    assert np.array_equal(linalg.mat_mul(PAULI_Y, PAULI_Y), np.eye(2))


def test_mat_mul_rejects_incompatible_shapes():
    with pytest.raises(DimensionMismatch):
        linalg.mat_mul(np.ones((2, 3)), np.ones((2, 3)))


def test_mat_mul_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        linalg.mat_mul(bad, np.eye(2))


def test_adjoint_conjugate_transposes():
    a = np.array([[1 + 2j, 3], [4j, 5]])
    assert np.array_equal(linalg.adjoint(a), a.conj().T)


def test_frobenius_distance_hand_value():
    a = np.array([[1, 0], [0, 1]], dtype=complex)
    b = np.array([[0, 0], [0, 0]], dtype=complex)
    assert linalg.frobenius_distance(a, b) == pytest.approx(math.sqrt(2.0))
    assert linalg.frobenius_distance(a, a) == 0.0


def test_frobenius_distance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.frobenius_distance(np.eye(2), np.eye(3))


def test_commutator_x_with_projector():
    # [X, diag(1,0)] worked out by hand
    p0 = np.diag([1.0, 0.0]).astype(complex)
    expected = np.array([[0, -1], [1, 0]], dtype=complex)
    assert np.allclose(linalg.commutator(PAULI_X, p0), expected)


def test_commutator_of_commuting_matrices_is_zero():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    assert np.array_equal(linalg.commutator(a, b), np.zeros((2, 2)))


def test_hermitian_eig_pauli_x_oracle():
    pairs = linalg.hermitian_eig(PAULI_X)
    vals = [v for v, _ in pairs]
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)
    minus = np.array([RT2, -RT2])
    plus = np.array([RT2, RT2])
    # eigenvectors defined up to phase; compare projectors instead
    assert np.allclose(np.outer(pairs[0][1], pairs[0][1].conj()),
                       np.outer(minus, minus), atol=1e-12)
    assert np.allclose(np.outer(pairs[1][1], pairs[1][1].conj()),
                       np.outer(plus, plus), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_ascending_and_orthonormal():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8, 12):
        a = random_hermitian(rng, n)
        pairs = linalg.hermitian_eig(a)
        vals = np.array([v for v, _ in pairs])
        assert (np.diff(vals) >= 0).all()
        vmat = np.column_stack([vec for _, vec in pairs])
        assert np.linalg.norm(vmat.conj().T @ vmat - np.eye(n)) < 1e-12 * n
        recon = (vmat * vals) @ vmat.conj().T
        assert np.linalg.norm(recon - a) < 1e-12 * max(1.0, np.linalg.norm(a))


def test_hermitian_eig_matches_jacobi_oracle():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8, 16):
        a = random_hermitian(rng, n)
        vals = np.array([v for v, _ in linalg.hermitian_eig(a)])
        ref = jacobi_eig(a)[0]
        assert np.abs(vals - ref).max() < 1e-10


def test_hermitian_eig_degenerate_input():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 6, degenerate=True)
    vals = np.array([v for v, _ in linalg.hermitian_eig(a)])
    ref = jacobi_eig(a)[0]
    assert np.abs(vals - ref).max() < 1e-10


def _exact_eigenvalues(a):
    # 150 digits resolve eigenvalues down to 1e-100 of ||a|| exactly
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(150):
        vals = mpmath.eighe(mpmath.matrix(a.tolist()), eigvals_only=True)
        return np.array(sorted(float(x) for x in vals))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_graded_family_eigh_keeps_relative_accuracy(k):
    # D A D with D = diag(10^(-k i)) and A well conditioned positive
    # definite: eigenvalues span 10^(-2k(n-1)). Jacobi with an absolute
    # off-diagonal target (the oracle) is only absolutely accurate there;
    # LAPACK eigh also resolves the small eigenvalues to relative accuracy.
    rng = np.random.default_rng(100 + k)
    n = 8
    for _ in range(3):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        d = 10.0 ** (-k * np.arange(n))
        a = d[:, None] * (g @ g.conj().T + n * np.eye(n)) * d[None, :]
        exact = _exact_eigenvalues(a)
        eigh_vals = np.array([v for v, _ in linalg.hermitian_eig(a)])
        jacobi_vals = jacobi_eig(a)[0]
        scale = np.linalg.norm(a)
        assert np.abs(eigh_vals - exact).max() <= 1e-14 * scale
        assert np.abs(jacobi_vals - exact).max() <= 1e-14 * scale
        eigh_rel = np.max(np.abs(eigh_vals - exact) / exact)
        jacobi_rel = np.max(np.abs(jacobi_vals - exact) / exact)
        assert eigh_rel <= 1e-10
        assert eigh_rel <= jacobi_rel


@pytest.mark.parametrize("n", [6, 8, 16])
def test_half_degenerate_family_eigh_matches_jacobi(n):
    rng = np.random.default_rng(200 + n)
    a = random_hermitian(rng, n, degenerate=True)
    exact = _exact_eigenvalues(a)
    eigh_vals = np.array([v for v, _ in linalg.hermitian_eig(a)])
    jacobi_vals = jacobi_eig(a)[0]
    scale = np.linalg.norm(a)
    assert np.abs(eigh_vals - exact).max() <= 1e-14 * scale
    assert np.abs(jacobi_vals - exact).max() <= 1e-14 * scale
    # the n/2 copies of the repeated eigenvalue merge into one eigenspace
    assert len(spectral_decompose(a).spectrum) == n - n // 2 + 1


def test_hermitian_eig_accepts_already_diagonal():
    pairs = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert [v for v, _ in pairs] == pytest.approx([1.0, 2.0, 3.0])


def test_expm_oracle_pauli_x_oracle():
    # e^{iX} = cos(1) I + i sin(1) X, from X^2 = I
    expected = math.cos(1.0) * np.eye(2) + 1j * math.sin(1.0) * PAULI_X
    assert np.allclose(linalg.expm_oracle(1j * PAULI_X), expected, atol=1e-14)


def test_expm_oracle_zero_matrix():
    assert np.array_equal(linalg.expm_oracle(np.zeros((3, 3))), np.eye(3))


def test_expm_oracle_additivity_on_commuting_input():
    a = np.diag([0.3, -0.7, 1.1]).astype(complex)
    lhs = linalg.expm_oracle(a) @ linalg.expm_oracle(a)
    rhs = linalg.expm_oracle(2 * a)
    assert np.linalg.norm(lhs - rhs) < 1e-13


def test_expm_oracle_unitary_for_skew_hermitian():
    rng = np.random.default_rng(31)
    for n in (2, 4, 8):
        a = random_hermitian(rng, n)
        u = linalg.expm_oracle(1j * a)
        left, right = linalg.unitarity_residuals(u)
        assert left < 1e-12 and right < 1e-12


def test_expm_oracle_large_norm_uses_squaring():
    a = np.diag([5.0, -3.0]).astype(complex)
    expected = np.diag([math.exp(5.0), math.exp(-3.0)])
    assert np.allclose(linalg.expm_oracle(a), expected, rtol=1e-12)


def test_unitarity_residuals_detects_both_sides():
    left, right = linalg.unitarity_residuals(np.eye(3))
    assert left == 0.0 and right == 0.0
    # (2I)^dag (2I) - I = 3I, so both residuals are 3*sqrt(2)
    left, right = linalg.unitarity_residuals(2 * np.eye(2))
    assert left == pytest.approx(3.0 * math.sqrt(2.0))
    assert right == pytest.approx(3.0 * math.sqrt(2.0))


def test_hermiticity_residual_values():
    assert linalg.hermiticity_residual(np.eye(2)) == 0.0
    assert linalg.hermiticity_residual(
        np.array([[0, 1], [0, 0]], dtype=complex)
    ) == pytest.approx(math.sqrt(2.0))


def test_within_tol_policy_uses_reference_scale():
    # residual <= tol * max(1, ||ref||_F)
    assert linalg.within_tol(1e-11, 1e-10)
    assert not linalg.within_tol(2e-10, 1e-10)
    big = 100.0 * np.eye(4)
    assert linalg.within_tol(1e-9, 1e-10, big)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
def test_eig_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n)
    pairs = linalg.hermitian_eig(a)
    recon = sum(v * np.outer(vec, vec.conj()) for v, vec in pairs)
    assert np.linalg.norm(recon - a) <= 1e-11 * max(1.0, np.linalg.norm(a))


def test_convergence_failure_message_exists():
    # the guard is unreachable through the public API; check it is wired
    assert issubclass(ConvergenceFailure, Exception)
