"""The completeness and unitarity verdicts against exact arithmetic.

Each draw scales the columns of a Haar basis Q: V = Q D with D real and
positive, D^2 = I + t diag(w), w a random unit vector. Then
V^dag V - I = D^2 - I and V V^dag - I = Q (D^2 - I) Q^dag, so both unitarity
residuals of V are t in exact arithmetic; so is the completeness residual of
the measurement set {P_m V}, P_m the coordinate projectors of a random
partition of the rows, since sum_m (P_m V)^dag (P_m V) = V^dag V. Choosing
t = threshold (1 +- 10^-k), k = 1..6, puts the residual next to the threshold,
so rounding is the only slack.

The exact residual of the same float entries is formed at 50 digits with
``mpmath``. Each float record must give the exact verdict whenever the exact
residual lies more than the record's ``floor`` (eps_n times its scale) from
the threshold tol sqrt(n).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_partition, random_unitary
from qmeasure.errors import NotUnitary
from qmeasure.measurement import MeasurementOperatorSet, validate_completeness
from qmeasure.reversible import UnitaryOperator

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DIMS = st.integers(min_value=1, max_value=8)
TOLS = st.sampled_from([1e-2, 1e-4, 1e-6, 1e-10])
RATIOS = st.builds(lambda sign, k: 1.0 + sign * 10.0 ** -k,
                   st.sampled_from([-1, 1]), st.integers(min_value=1, max_value=6))


def scaled_basis(rng, n, target):
    """Q D, Q Haar and D^2 = I + target diag(w) for a random unit vector w."""
    w = rng.normal(size=n)
    return random_unitary(rng, n) * np.sqrt(1.0 + target * w / np.linalg.norm(w))


def exact_gram_defect(a, mpmath):
    """||a^dag a - I||_F of the float matrix ``a`` at the working precision: every entry of
    a^dag a is an exact dot product of the columns' float values."""
    cols = [[mpmath.mpc(z) for z in col] for col in np.asarray(a).T.tolist()]
    return mpmath.sqrt(mpmath.fsum(
        abs(mpmath.fdot(cj, ci, conjugate=True) - int(i == j)) ** 2
        for i, ci in enumerate(cols) for j, cj in enumerate(cols)))


def assert_exact_verdict(record, exact, tol, n, mpmath):
    """The record passed iff the exact residual is within tol sqrt(n), outside its floor."""
    threshold = mpmath.mpf(tol) * mpmath.sqrt(n)
    if abs(exact - threshold) > record.floor:
        assert record.passed == (exact <= threshold)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=DIMS, tol=TOLS, ratio=RATIOS)
def test_the_unitarity_records_give_the_exact_verdict(seed, n, tol, ratio):
    """Both records of ``UnitaryOperator``: ||V^dag V - I||_F and ||V V^dag - I||_F."""
    mpmath = pytest.importorskip("mpmath")
    v = scaled_basis(np.random.default_rng(seed), n, ratio * tol * math.sqrt(n))
    try:
        left, right = UnitaryOperator(v, tol=tol).records
    except NotUnitary as exc:
        left, right = exc.records
    assert (left.quantity, right.quantity) == ("unitarity_left", "unitarity_right")
    with mpmath.workdps(50):
        assert_exact_verdict(left, exact_gram_defect(v, mpmath), tol, n, mpmath)
        assert_exact_verdict(right, exact_gram_defect(v.conj().T, mpmath), tol, n, mpmath)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=DIMS, tol=TOLS, ratio=RATIOS)
def test_the_completeness_record_gives_the_exact_verdict(seed, n, tol, ratio):
    """The record of ``validate_completeness`` on {P_m V}: the stacked rows of P_m V, whose
    Gram matrix is the completeness sum."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    v = scaled_basis(rng, n, ratio * tol * math.sqrt(n))
    ops = []
    for rows in random_partition(rng, n, int(rng.integers(1, n + 1))):
        op = np.zeros_like(v)
        op[rows] = v[rows]
        ops.append(op)
    record = validate_completeness(MeasurementOperatorSet(ops), tol)
    assert record.quantity == "completeness"
    with mpmath.workdps(50):
        assert_exact_verdict(record, exact_gram_defect(np.concatenate(ops), mpmath), tol, n, mpmath)
