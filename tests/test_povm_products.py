"""The bound that proves the POVMs of products E_m = M_m^dag M_m Hermitian and positive.

``povm_from_operators`` admits them, for ``irm_povm`` too (the POVM of {U}),
with the completeness residual c its set already passed: it refuses an incomplete
set first. As sum_m ||M_m||_F^2 = tr(sum_m E_m) <= n + sqrt(n) c, each computed
E_m is Hermitian to 2k and has no computed eigenvalue below -k, for
k = eps_n (n + sqrt(n) c) and eps_n = 4 n^(3/2) eps (README, Tolerances).
When 2k passes ``within_tol`` at ``tol``, so does k against any element's
scale, which is the positivity judge's rule; then only c is judged, and the
hermiticity and the eigenvalues are formed when ``residuals`` is first read.
Otherwise every leg is judged, as ``Povm(elements, tol)`` judges it. So a
proved POVM must pass that judge with its residuals bit for bit, and the POVM
of every complete set, proved or not, must raise or pass exactly as the judge does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import admitted, random_partition, random_unitary
from qmeasure import linalg
from qmeasure.errors import IncompleteSet, NotPositive, NotUnitary, QmeasureError
from qmeasure.measurement import (
    MeasurementOperatorSet,
    Povm,
    povm_from_operators,
)
from qmeasure.reversible import irm_povm

EPS = 2.0 ** -52  # np.finfo(float).eps
FORMED = ("_norms_and_hermiticity", "_lowest")  # what the two proved legs would form


def allowance(n, c):
    """k = eps_n (n + sqrt(n) c): each element is Hermitian to 2k and >= -k."""
    return 4.0 * n ** 1.5 * EPS * (n + math.sqrt(n) * c)


def proves(n, c, tol):
    """The README's predicate: 2k within ``tol`` (scale 1)."""
    return bool(linalg.within_tol(2 * allowance(n, c), tol))


def expected_outcome(opset, elements, tol):
    """What ``povm_from_operators(opset, tol)`` must give: the refusal of an incomplete set,
    else the judge's outcome on the products ``elements``."""
    c = opset.completeness_residual
    if not linalg.within_tol(c, tol, math.sqrt(opset.dim)):
        return (IncompleteSet, f"operator set fails completeness (residual {c:.3e}); "
                "it cannot be measured", {"completeness": c})
    return outcome(lambda: Povm(elements, tol=tol))


def unformed(povm):
    return not any(name in vars(povm) for name in FORMED)


def outcome(build):
    """What ``build()`` gives: its elements and residuals, or its error's type, message and residuals."""
    try:
        povm = build()
    except QmeasureError as exc:
        return type(exc), str(exc), exc.residuals
    return povm._stack.tobytes(), povm.residuals


def complete_family(rng, n, kind):
    """A complete family {M_m}: rank-1 M_k = v_k w_k^dag, with v_k Haar unit vectors and
    w_k^dag the rows of a Haar W, or Q_m P_m R, with P_m the indicators of a random
    partition into k groups and Q_m, R Haar."""
    r = random_unitary(rng, n)
    if kind == "rank1":
        return np.array([np.outer(random_unitary(rng, n)[:, 0], r[k]) for k in range(n)])
    groups = random_partition(rng, n, int(rng.integers(1, n + 1)))
    return np.array([(random_unitary(rng, n)[:, g]) @ r[g] for g in groups])


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 4, 5, 8, 32]), kind=st.sampled_from(["rank1", "qpr"]),
       log_scale=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), log_ratio=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_povm_of_products_is_judged_as_the_judge_judges_its_elements(
        n, kind, log_scale, log_ratio, seed):
    """The family is complete, then scaled by 10^log_scale (1e-3 to 1e3), and tol is
    10^log_ratio times the bound 2k (within a factor 10 of it). The proof and the
    judge's two legs agree, and the set's POVM is refused as incomplete or raises or passes
    as the judge does."""
    rng = np.random.default_rng(seed)
    opset = MeasurementOperatorSet(complete_family(rng, n, kind) * 10.0 ** log_scale)
    elements = np.array([linalg._adjoint(m) @ m for m in opset.operators])
    c = opset.completeness_residual
    tol = 2 * allowance(n, c) * 10.0 ** log_ratio
    proved = proves(n, c, tol)
    if proved:  # the legs the proof skips pass the judge; only completeness may fail
        failure = admitted(Povm, elements, tol)[1]
        assert failure is None or isinstance(failure, IncompleteSet)

    def build():
        povm = povm_from_operators(opset, tol)
        assert unformed(povm) == proved  # proved: no hermiticity or eigenvalue yet
        return povm
    assert outcome(build) == expected_outcome(opset, elements, tol)  # floats with ==: bit for bit


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 4, 8, 32]), log_ratio=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_irm_povm_of_a_haar_unitary_is_judged_as_the_judge_judges_its_element(n, log_ratio, seed):
    """{U^dag U} with c = unitarity_left, at tol within a factor 10 of the bound 2k."""
    u = random_unitary(np.random.default_rng(seed), n)
    c = linalg._unitarity_residuals(u)["unitarity_left"]
    tol = 2 * allowance(n, c) * 10.0 ** log_ratio
    try:
        povm = irm_povm(u, tol)
    except NotUnitary:  # the unitary itself fails at this tol (n = 1 only): no POVM is formed
        assert n == 1
        return
    assert unformed(povm) == proves(n, c, tol)
    assert outcome(lambda: povm) == outcome(lambda: Povm([u.conj().T @ u], tol=tol))


def test_a_proved_povm_forms_no_eigenvalue_until_its_residuals_are_read(monkeypatch):
    calls, lowest = [], linalg.lowest_eigenvalue
    monkeypatch.setattr(linalg, "lowest_eigenvalue", lambda a: calls.append(len(a)) or lowest(a))
    rng = np.random.default_rng(11)
    opset = MeasurementOperatorSet(complete_family(rng, 4, "qpr"))
    for povm in (povm_from_operators(opset), irm_povm(random_unitary(rng, 4))):
        assert calls == [] and unformed(povm)
        residuals = povm.residuals
        assert calls == [len(povm)]  # one eigvalsh call for the one tile
        assert residuals == Povm(povm.elements).residuals  # which judges them: one more call
        calls.clear()


@pytest.mark.parametrize("n, s, tol, proved", [
    (8, 1.0, "2k", True),  # the hermiticity leg at its edge
    (8, 1.0, "2k-", False),  # one ulp below it
    (8, 1.0, "1.5k", False),  # the factor 2 is needed
    (64, 2.25, 3.0, True),  # k = eps_n (64 + 8 * 10) = 6.5e-11, proved at any tol >= 2k ...
    (64, 3.5, 1.5e-10, False),  # ... but at c = 20, 2k = 2.04e-10: the sqrt(n) c term is needed
    (2, 0.5, 1e-10, True),  # proved, yet c = 0.707: completeness is still judged
    (2, 1.0, math.inf, False),  # a tol no check passes
    (2, 1.0, math.nan, False),
    (2, 1.0, -1.0, False),
])
def test_the_proof_is_the_documented_bound(n, s, tol, proved):
    """The one element s I of {sqrt(s) I} (completeness c about |s - 1| sqrt(n)) is proved
    exactly as the README's bound says; proved or not, it is admitted or refused as the judge
    does once the set is complete, and an incomplete set is refused first."""
    opset = MeasurementOperatorSet([math.sqrt(s) * np.eye(n, dtype=complex)])
    elements = [linalg._adjoint(opset.operators[0]) @ opset.operators[0]]
    c = opset.completeness_residual
    assert c == MeasurementOperatorSet(elements)._completeness
    k = allowance(n, c)
    tol = {"2k": 2 * k, "2k-": np.nextafter(2 * k, 0.0), "1.5k": 1.5 * k}.get(tol, tol)
    assert proves(n, c, tol) == proved
    expected = expected_outcome(opset, elements, tol)
    try:
        povm = povm_from_operators(opset, tol)
    except QmeasureError as exc:  # proved, only completeness can fail
        assert not proved or isinstance(exc, IncompleteSet)
        assert (type(exc), str(exc), exc.residuals) == expected
        return
    assert unformed(povm) == proved and outcome(lambda: povm) == expected


def test_the_proof_implies_the_positivity_judge():
    """An element whose lowest eigenvalue is -k, the least the bound allows, passes the
    positivity judge at every tol >= 2k that proves it; one ulp under tol = k it fails."""
    k = allowance(8, 0.0)
    element = np.diag([-k, 0.5] + [0.0] * 6).astype(complex)  # ||E||_F < 1: scale 1
    for tol, positive in ((2 * k, True), (k, True), (np.nextafter(k, 0.0), False)):
        failure = admitted(Povm, [element], tol)[1]
        assert isinstance(failure, NotPositive) != positive
