"""The superposition rule of ``superpose_operators`` near its threshold.

The rule judges one aggregate, a = sum_{i != j} ||M_i^dag M_j||_F plus the
completeness residual c when c passes, against tol sqrt(n). For every
phase vector a bounds ||M^dag M - I||_F and ||M M^dag - I||_F, and every
right pair ||M_i M_j^dag||_F (README, Tolerances). The sum is still judged;
when a passed by less than the rounding eps_n (n + sqrt(n) a) of that
judge, a failure there is the violation, so no family whose preconditions
pass meets ``NotUnitary``. Here eps_n = 4 n^(3/2) eps is the rounding of
one n x n product relative to its scale. The families here are drawn with a at the threshold times
1 +- 10^-k, k = 1..6, so rounding is the only slack. Each float verdict is
allowed to differ from the exact one only inside the band
threshold +- eps_n s, where s = (sum_m ||M_m||_F)^2 + sqrt(n) bounds the
scales of every pair product (sum_{i, j} ||M_i||_F ||M_j||_F) and of the
completeness sum.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from helpers import (
    near_threshold_family,
    random_phases,
    superposition_aggregate,
    superposition_rounding,
    unitarity_residuals,
)
from qmeasure.errors import IncompleteSet, NotUnitary, OrthogonalityViolation
from qmeasure.measurement import MeasurementOperatorSet
from qmeasure.reversible import PhaseVector, superpose_operators

KINDS = ["rank1", "qpr", "stretch"]
RATIOS = st.builds(lambda sign, k: 1.0 + sign * 10.0 ** -k,
                   st.sampled_from([-1, 1]), st.integers(min_value=1, max_value=6))


def rounding_band(ops):
    """eps_n s: how far rounding can move the aggregate or a unitarity residual of the sum."""
    n = len(ops[0])
    scale = sum(np.linalg.norm(m) for m in ops) ** 2 + math.sqrt(n)
    return 4.0 * n ** 1.5 * np.finfo(float).eps * scale


def draw_family(seed, kind, n, tol, ratio):
    if n == 1 and kind == "rank1":
        reject()  # one rank-1 operator has no pair to tilt
    rng = np.random.default_rng(seed)
    k = n if kind == "rank1" else int(rng.integers(1, n + 1))
    ops = near_threshold_family(rng, kind, n, k, ratio * tol * math.sqrt(n))
    return ops, PhaseVector(random_phases(rng, k))


def verdict(ops, phases, tol):
    """Which rule decides ``superpose_operators``, and the unitary when none fails."""
    try:
        return "unitary", superpose_operators(MeasurementOperatorSet(tuple(ops)), phases, tol)
    except OrthogonalityViolation:
        return "orthogonality", None
    except IncompleteSet:
        return "completeness", None


def test_pairs_that_pass_one_by_one_fail_as_an_aggregate():
    """n = 32 rank-1 operators M_k = v_k e_k^dag with every overlap <v_i, v_j> = 0.9 tol:
    each pair passes at tol and completeness holds, but the 992 pairs together put the sum
    off unitary by about 28 tol, over the tol sqrt(32) its judge allows."""
    n, tol = 32, 1e-10
    gram = np.eye(n) + 0.9 * tol * (np.ones((n, n)) - np.eye(n))
    v = np.linalg.cholesky(gram).conj().T  # v^dag v = gram
    ops = [np.outer(v[:, k], np.eye(n)[k]).astype(complex) for k in range(n)]
    aggregate, pairs, c = superposition_aggregate(ops, tol)
    assert pairs.max() <= tol and c <= tol * math.sqrt(n)
    with pytest.raises(OrthogonalityViolation) as exc:
        superpose_operators(MeasurementOperatorSet(ops), PhaseVector(np.ones(n)), tol)
    assert exc.value.residuals == {"orthogonality": aggregate}
    assert f"aggregate {aggregate:.3e} exceeds {tol * math.sqrt(n):.3e}" in str(exc.value)
    assert aggregate > 150 * tol * math.sqrt(n)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(KINDS),
       st.sampled_from([1, 2, 3, 5, 8, 32]), st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
       RATIOS | st.sampled_from([0.5, 2.0]))
def test_a_superposable_family_sums_to_a_unitary_within_its_aggregate(seed, kind, n, tol, ratio):
    """Whenever the preconditions pass, the sum is a unitary (``verdict`` lets no
    ``NotUnitary`` through), and both its unitarity residuals, every right pair
    ||M_i M_j^dag||_F and ||sum_m M_m M_m^dag - I||_F are at most a plus its rounding."""
    ops, phases = draw_family(seed, kind, n, tol, ratio)
    aggregate, _, _ = superposition_aggregate(ops, tol)
    judged = aggregate + superposition_rounding(aggregate, n)
    rule, unit = verdict(ops, phases, tol)
    if rule != "unitary":
        return
    assert max(unit.residuals.values()) <= judged
    adjoints = [m.conj().T for m in ops]
    rights = [np.linalg.norm(mi @ adjoints[j]) for i, mi in enumerate(ops)
              for j in range(len(ops)) if i != j]
    completeness = np.linalg.norm(sum(m @ mh for m, mh in zip(ops, adjoints)) - np.eye(n))
    assert max(rights + [completeness]) <= judged


def test_a_passing_aggregate_inside_the_band_is_refused_not_judged_unitary():
    """A family whose pair sum plus c is under tol sqrt(2) by less than the rounding of the
    unitarity judge, and whose sum is off unitary by more than tol sqrt(2): that judge's failure
    is raised as the violation, with a and both unitarity residuals, not as ``NotUnitary``.
    Such draws sit inside a rounding band, so they are searched for (about one in 15)."""
    rng, tol = np.random.default_rng(164), 1e-10
    for _ in range(300):
        ops, phases = draw_family(int(rng.integers(2 ** 32)), "stretch", 2, tol, 0.999999)
        aggregate, _, _ = superposition_aggregate(ops, tol)
        if aggregate < tol * math.sqrt(2) < aggregate + superposition_rounding(aggregate, 2) \
                and max(unitarity_residuals(np.tensordot(phases.phases, ops, axes=1))) > tol * math.sqrt(2):
            break
    else:
        pytest.fail("no draw inside the band")
    with pytest.raises(OrthogonalityViolation, match="by less than the rounding") as exc:
        superpose_operators(MeasurementOperatorSet(tuple(ops)), phases, tol)
    assert exc.value.residuals.keys() == {"orthogonality", "unitarity_left", "unitarity_right"}
    assert exc.value.residuals["orthogonality"] == aggregate
    assert max(exc.value.residuals.values()) > tol * math.sqrt(2)


@pytest.mark.parametrize("n, tol", [(4, 1e-14), (16, 1e-13), (34, 1e-12)])
def test_exactly_orthogonal_projectors_superpose_below_the_rounding_term(n, tol):
    """Computational projectors have a = 0, yet eps_n n exceeds tol sqrt(n) here: the
    rounding term is no precondition, so the sum reaches its judge, which passes it."""
    ops = tuple(np.diag(row).astype(complex) for row in np.eye(n))
    assert superposition_rounding(0.0, n) > tol * math.sqrt(n)
    unit = superpose_operators(MeasurementOperatorSet(ops), PhaseVector.from_angles(np.arange(n)), tol)
    assert max(unit.residuals.values()) <= tol * math.sqrt(n)


def test_phases_off_the_unit_circle_still_fail_as_not_unitary():
    """Exact projectors (a = 0) and phases with |alpha|^2 - 1 = 5e-13, inside
    ``UNIMODULAR_TOL``: at tol 1e-14 a passes with its rounding, so the judge's failure is the
    phases', and is raised as ``NotUnitary``."""
    phases = PhaseVector(np.sqrt(1 + 5e-13) * np.array([1.0, 1j]))
    ops = MeasurementOperatorSet(tuple(np.diag(row).astype(complex) for row in np.eye(2)))
    assert superposition_rounding(0.0, 2) < 1e-14 * math.sqrt(2)
    with pytest.raises(NotUnitary):
        superpose_operators(ops, phases, 1e-14)


def exact_residuals(ops, mpmath):
    """(pair sum, c) of the float family at the working precision: each product, norm and
    sum formed in ``mpmath`` from the exact values of the float entries."""
    mats = [mpmath.matrix(m.tolist()) for m in ops]
    adjoints = [m.H for m in mats]

    def norm(a):
        return mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in a))

    pairs = mpmath.fsum(norm(adjoints[i] * mats[j]) for i in range(len(ops))
                        for j in range(len(ops)) if i != j)
    total = sum((mh * m for mh, m in zip(adjoints, mats)), mpmath.zeros(len(ops[0])))
    return pairs, norm(total - mpmath.eye(len(ops[0])))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(KINDS),
       st.integers(min_value=1, max_value=8), st.sampled_from([1e-2, 1e-4, 1e-6]), RATIOS)
def test_the_superposition_verdict_is_the_exact_verdict_outside_the_band(seed, kind, n, tol, ratio):
    """The float verdict equals the verdict of the same rule on the exact aggregate of the same
    float entries (50 digits), unless the exact a or c lies within the band of the threshold."""
    mpmath = pytest.importorskip("mpmath")
    ops, phases = draw_family(seed, kind, n, tol, ratio)
    band = rounding_band(ops)
    with mpmath.workdps(50):
        pairs, c = exact_residuals(ops, mpmath)
        threshold = mpmath.mpf(tol) * mpmath.sqrt(n)
        aggregate = pairs + (c if c <= threshold else 0)
        assume(abs(c - threshold) > band and abs(aggregate - threshold) > band)
        exact = ("orthogonality" if aggregate > threshold else
                 "completeness" if c > threshold else "unitary")
    assert verdict(ops, phases, tol)[0] == exact
