import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    commutator,
    expm_oracle,
    frobenius_norm,
    jacobi_eig,
    random_hermitian,
    unitarity_residuals,
)
from qmeasure import linalg
from qmeasure.errors import DimensionMismatch, NotHermitian, NotUnitary
from qmeasure.measurement import DensityMatrix, spectral_decompose
from qmeasure.reversible import UnitaryOperator

RT2 = 1.0 / math.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_adjoint_conjugate_transposes():
    a = np.array([[1 + 2j, 3], [4j, 5]])
    assert np.array_equal(linalg.adjoint(a), a.conj().T)


def test_frobenius_distance_hand_value():
    a = np.array([[1, 0], [0, 1]], dtype=complex)
    b = np.array([[0, 0], [0, 0]], dtype=complex)
    assert frobenius_norm(a - b) == pytest.approx(math.sqrt(2.0))
    assert frobenius_norm(a - a) == 0.0


def test_commutator_x_with_projector():
    # [X, diag(1,0)] worked out by hand
    p0 = np.diag([1.0, 0.0]).astype(complex)
    expected = np.array([[0, -1], [1, 0]], dtype=complex)
    assert np.allclose(commutator(PAULI_X, p0), expected)


def test_commutator_of_commuting_matrices_is_zero():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    assert np.array_equal(commutator(a, b), np.zeros((2, 2)))


def test_hermitian_eig_pauli_x_oracle():
    vals, vecs, hermiticity, scale = linalg.guarded_eigh(PAULI_X)
    assert hermiticity.residual == 0.0 and hermiticity.passed and scale == math.sqrt(2.0)
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)
    minus = np.array([RT2, -RT2])
    plus = np.array([RT2, RT2])
    # eigenvectors defined up to phase; compare projectors instead
    assert np.allclose(np.outer(vecs[:, 0], vecs[:, 0].conj()),
                       np.outer(minus, minus), atol=1e-12)
    assert np.allclose(np.outer(vecs[:, 1], vecs[:, 1].conj()),
                       np.outer(plus, plus), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian) as exc:
        linalg.guarded_eigh(np.array([[0, 1], [0, 0]], dtype=complex))
    assert exc.value.residuals == {"hermiticity": math.sqrt(2.0)}


def test_hermitian_eig_ascending_and_orthonormal():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8, 12):
        a = random_hermitian(rng, n)
        vals, vmat, _, _ = linalg.guarded_eigh(a)
        assert (np.diff(vals) >= 0).all()
        assert np.linalg.norm(vmat.conj().T @ vmat - np.eye(n)) < 1e-12 * n
        recon = (vmat * vals) @ vmat.conj().T
        assert np.linalg.norm(recon - a) < 1e-12 * max(1.0, np.linalg.norm(a))


def test_hermitian_eig_matches_jacobi_oracle():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8, 16):
        a = random_hermitian(rng, n)
        vals = linalg.guarded_eigh(a)[0]
        ref = jacobi_eig(a)[0]
        assert np.abs(vals - ref).max() < 1e-10


def test_hermitian_eig_degenerate_input():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 6, degenerate=True)
    vals = linalg.guarded_eigh(a)[0]
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
        eigh_vals = linalg.guarded_eigh(a)[0]
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
    eigh_vals = linalg.guarded_eigh(a)[0]
    jacobi_vals = jacobi_eig(a)[0]
    scale = np.linalg.norm(a)
    assert np.abs(eigh_vals - exact).max() <= 1e-14 * scale
    assert np.abs(jacobi_vals - exact).max() <= 1e-14 * scale
    # the n/2 copies of the repeated eigenvalue merge into one eigenspace
    assert len(spectral_decompose(a).spectrum) == n - n // 2 + 1


def test_hermitian_eig_accepts_already_diagonal():
    vals, _, _, _ = linalg.guarded_eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert vals == pytest.approx([1.0, 2.0, 3.0])


def test_expm_oracle_pauli_x_oracle():
    # e^{iX} = cos(1) I + i sin(1) X, from X^2 = I
    expected = math.cos(1.0) * np.eye(2) + 1j * math.sin(1.0) * PAULI_X
    assert np.allclose(expm_oracle(1j * PAULI_X), expected, atol=1e-14)


def test_expm_oracle_zero_matrix():
    assert np.array_equal(expm_oracle(np.zeros((3, 3))), np.eye(3))


def test_expm_oracle_nilpotent_series_is_exact():
    # N^2 = 0, so e^N = I + N and every later term is exactly zero
    nil = np.array([[0, 0.25], [0, 0]], dtype=complex)
    assert np.array_equal(expm_oracle(nil), np.eye(2) + nil)


def test_expm_oracle_additivity_on_commuting_input():
    a = np.diag([0.3, -0.7, 1.1]).astype(complex)
    lhs = expm_oracle(a) @ expm_oracle(a)
    rhs = expm_oracle(2 * a)
    assert np.linalg.norm(lhs - rhs) < 1e-13


def test_expm_oracle_unitary_for_skew_hermitian():
    rng = np.random.default_rng(31)
    for n in (2, 4, 8):
        a = random_hermitian(rng, n)
        u = expm_oracle(1j * a)
        left, right = unitarity_residuals(u)
        assert left < 1e-12 and right < 1e-12


def test_expm_oracle_large_norm_uses_squaring():
    a = np.diag([5.0, -3.0]).astype(complex)
    expected = np.diag([math.exp(5.0), math.exp(-3.0)])
    assert np.allclose(expm_oracle(a), expected, rtol=1e-12)


@pytest.mark.parametrize("entry", [1e308, 1e155])
def test_expm_oracle_names_an_overflowed_norm(entry):
    # finite entries whose sum of squares overflows: the halving count
    # log2(inf) has no integer, and no squaring could be undone
    with pytest.raises(ValueError, match=r"^matrix norm overflowed to inf"):
        expm_oracle(np.full((2, 2), entry))


def test_expm_oracle_scales_the_largest_finite_norm():
    # ||a||_F = 2e153 needs 512 halvings, and e^a of this nilpotent is I + a
    nil = np.array([[0, 2e153], [0, 0]], dtype=complex)
    assert np.array_equal(expm_oracle(nil), np.eye(2) + nil)


def test_unitarity_residuals_detects_both_sides():
    left, right = linalg._require_unitary(linalg.as_matrix(np.eye(3)), 1e-10)
    assert left.residuals | right.residuals == {"unitarity_left": 0.0, "unitarity_right": 0.0}
    # (2I)^dag (2I) - I = 3I, so both residuals are 3*sqrt(2)
    with pytest.raises(NotUnitary) as info:
        linalg._require_unitary(linalg.as_matrix(2 * np.eye(2)), 1e-10)
    assert info.value.residuals == pytest.approx(
        {"unitarity_left": 3.0 * math.sqrt(2.0), "unitarity_right": 3.0 * math.sqrt(2.0)})


def test_the_judge_records_its_verdict():
    """A value, its threshold tol * max(1, scale) and floor eps_n * scale; an array's
    first failing entry in row-major order, else its largest; a proof; an overflowed scale."""
    record = linalg.judge("q", 2e-10, 1e-10, 4.0, n=2)
    assert record == linalg.Judgement("q", 2e-10, 1e-10, 4.0, 2, None, True, False)
    assert (record.threshold, record.floor) == (4e-10, linalg._rounding_allowance(2) * 4.0)
    assert not record.overflowed and not record.proved
    entries, scales = np.array([[0.0, 3.0], [5.0, 1.0]]), np.array([[1.0, 1.0], [100.0, 1.0]])
    failed = linalg.judge("pairs", entries, 2.0, scales, n=2)
    assert (failed.where, failed.residual, failed.threshold, failed.passed) == ((0, 1), 3.0, 2.0, False)
    passed = linalg.judge("pairs", entries, 10.0, scales, n=2)
    assert (passed.where, passed.residual, passed.threshold, passed.passed) == ((1, 0), 5.0, 1000.0, True)
    assert type(passed.residual) is float and type(passed.where[0]) is int
    proof = linalg.judge("bound", 1e-12, 1e-10, n=3, proved=True)
    assert proof.proved and proof.passed and proof.residuals == {"bound": 1e-12}
    over = linalg.judge("hermiticity", 1.0, 1e-10, math.inf, n=2)
    assert over.overflowed and not over.passed and over.threshold == math.inf
    assert over.note == "residual 1.000e+00; its norm overflowed, so the threshold is inf"


NON_SQUARE = np.ones((2, 3))

# Every entry point that takes one matrix reaches linalg._require_square.
SINGLE_MATRIX_ENTRY_POINTS = {
    "guarded_eigh": linalg.guarded_eigh,
    "spectral_decompose": spectral_decompose,
    "DensityMatrix": DensityMatrix,
    "UnitaryOperator": UnitaryOperator,
}


@pytest.mark.parametrize("name", sorted(SINGLE_MATRIX_ENTRY_POINTS))
def test_one_squareness_rule_for_every_single_matrix(name):
    with pytest.raises(DimensionMismatch) as exc:
        SINGLE_MATRIX_ENTRY_POINTS[name](NON_SQUARE)
    assert str(exc.value) == "expected a square matrix, got shape (2, 3)"


def test_within_tol_policy_uses_reference_scale():
    # residual <= tol * max(1, ||ref||_F)
    assert linalg.within_tol(1e-11, 1e-10)
    assert not linalg.within_tol(2e-10, 1e-10)
    big = 100.0 * np.eye(4)
    assert linalg.within_tol(1e-9, 1e-10, np.linalg.norm(big))


@pytest.mark.parametrize("residual,tol,scale,passed", [
    (0.0, 1e308, 2.0, True),         # tol * scale alone overflows: a finite residual passes
    (1e308, 1e308, 1e10, True),
    (math.inf, 1e308, 2.0, False),
    (math.nan, 1e-10, 1.0, False),
    (0.0, 1e-10, math.inf, False),   # an overflowed scale
    (0.0, 1e-10, math.nan, False),
    (0.0, math.inf, 1.0, False),
    (0.0, math.nan, 1.0, False),
    (1e-9, 1e-10, 1.0, False),
])
def test_within_tol_passes_only_finite_operands(residual, tol, scale, passed):
    assert bool(linalg.within_tol(residual, tol, scale)) is passed
    elementwise = linalg.within_tol(np.array([residual, 0.0]), tol, np.array([scale, 1.0]))
    assert elementwise.tolist() == [passed, math.isfinite(tol)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
def test_eig_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n)
    vals, vecs, _, _ = linalg.guarded_eigh(a)
    recon = sum(v * np.outer(vec, vec.conj()) for v, vec in zip(vals, vecs.T))
    assert np.linalg.norm(recon - a) <= 1e-11 * max(1.0, np.linalg.norm(a))
