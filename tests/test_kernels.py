"""The stacked residual kernels against the per-matrix loops they replaced.

Every residual must equal its loop definition bit for bit (``==``, with NaN
matching NaN), because the goldens and the first-violation messages print
those bits. The loops below are the reference implementations. The tiled
phase sums and preservation probabilities are no residuals: they need only
agree with their loops to rounding.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    admitted,
    commutation_residuals,
    commutator,
    orthogonal_family,
    random_hermitian,
    random_phases,
    random_state,
    random_unitary,
    superposition_aggregate,
)
from qmeasure import fileio, linalg, measurement
from qmeasure.errors import (
    IncompleteSet,
    InvalidProjectorSet,
    NotPositive,
    OrthogonalityViolation,
    QmeasureError,
)
from qmeasure.measurement import (
    MeasurementOperatorSet,
    Povm,
    ProjectorSet,
    QuantumState,
    apply_outcome,
    classify_measurement,
    outcome_probabilities,
    povm_from_operators,
    povm_probabilities,
    sample_histogram,
    spectral_decompose,
)
from qmeasure.mirror import (
    bell_comparison,
    extend_mirror,
    is_mirror,
    truth_protocol,
    verify_probability_preservation,
)
from qmeasure.reversible import (
    PhaseVector,
    UnitaryOperator,
    irm_povm,
    phase_superpose_projectors,
    superpose_operators,
)

DIMS = list(range(1, 10)) + [32, 64]
SCALES = [1e-150, 1.0, 1e150]


def loop_pairs(ops):
    out = np.empty((len(ops), len(ops)))
    for i, pi in enumerate(ops):
        for j, pj in enumerate(ops):
            prod = pi @ pj
            if i == j:
                prod -= pi
            out[i, j] = np.linalg.norm(prod)
    return out


def rank1_projectors(rng, n):
    u = random_unitary(rng, n)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(n)]


@st.composite
def families(draw):
    """A (k, n, n) stack: Gaussian or rank-1 projectors, scaled, and either
    C-ordered or a strided (non-contiguous) view into a larger array."""
    n = draw(st.sampled_from(DIMS))
    k = draw(st.integers(min_value=1, max_value=9))
    scale = draw(st.sampled_from(SCALES))
    strided = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        mats = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    else:
        projs = rank1_projectors(rng, n)
        mats = np.array([projs[m % n] for m in range(k)])
    mats = mats * scale
    if not strided:
        return mats
    big = np.zeros((k, 2 * n, 3 * n), dtype=complex)
    big[:, ::2, 1::3] = mats
    return big[:, ::2, 1::3]


@settings(max_examples=80, deadline=None)
@given(families(), st.integers(min_value=0, max_value=2**32 - 1))
def test_stacked_kernels_equal_the_per_matrix_loops(stack, seed):
    ops = tuple(stack)
    n = stack.shape[1]
    u = UnitaryOperator(random_unitary(np.random.default_rng(seed), n))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.array([np.linalg.norm(p) for p in ops])
        hermiticity = np.array([np.linalg.norm(p - p.conj().T) for p in ops])
        pairs = loop_pairs(ops)
        adjoint_lefts = np.array([[np.linalg.norm(mi.conj().T @ mj) for mj in ops] for mi in ops])
        adjoint_rights = np.array([[np.linalg.norm(mi @ mj.conj().T) for mj in ops] for mi in ops])
        commutators = np.array([np.linalg.norm(commutator(u.matrix, p)) for p in ops])
        stacked = linalg.frobenius_norms(stack)
        mirror = commutation_residuals(u, MeasurementOperatorSet(ops))
    adjoints = [np.conjugate(m.T, order="C") for m in ops]
    off = ~np.eye(len(ops), dtype=bool)
    res = MeasurementOperatorSet(ops)
    np.testing.assert_array_equal(stacked, norms, strict=True)
    np.testing.assert_array_equal(res._norms, norms, strict=True)
    np.testing.assert_array_equal(res._hermiticity, hermiticity, strict=True)
    np.testing.assert_array_equal(res._pairs, pairs, strict=True)
    np.testing.assert_array_equal(
        linalg.orthogonality_residuals(adjoints, ops)[off], adjoint_lefts[off], strict=True)
    np.testing.assert_array_equal(
        linalg.orthogonality_residuals(ops, adjoints)[off], adjoint_rights[off], strict=True)
    np.testing.assert_array_equal(np.array(mirror), commutators, strict=True)
    assert all(type(r) is float for r in mirror)


def loop_lowest(ops):
    """The smallest eigenvalue of each Hermitian part, one eigvalsh per matrix."""
    return np.array([float(np.linalg.eigvalsh((p + p.conj().T) / 2.0)[0]) for p in ops])


@pytest.mark.parametrize("n", DIMS)
def test_batched_lowest_eigenvalues_equal_the_per_matrix_eigvalsh(n):
    """One eigvalsh per stack gives the per-matrix bits: Hermitian and
    non-Hermitian matrices, three scales, one stack and (n = 32, 64)
    several."""
    rng = np.random.default_rng(n)
    sizes = [1, 5] + ([2 * linalg.stack_size(n) + 3] if n >= 32 else [])
    for k in sizes:
        for scale in SCALES:
            gaussian = [scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                        for _ in range(k)]
            for ops in (gaussian, [random_hermitian(rng, n) * scale for _ in range(k)]):
                ops = tuple(np.ascontiguousarray(p) for p in ops)
                expected = loop_lowest(ops)
                np.testing.assert_array_equal(MeasurementOperatorSet(ops)._lowest, expected, strict=True)
                assert [linalg.lowest_eigenvalue(p) for p in ops] == expected.tolist()


@pytest.mark.parametrize("n", [2, 9, 64])
def test_povm_with_negative_elements_names_the_first_as_before(n):
    """Elements Q diag(w_k) Q^dag with weights summing to 1; elements 2 and
    4 (in the second and third stack at n = 64) have a negative weight."""
    rng = np.random.default_rng(n)
    q = random_unitary(rng, n)
    weights = rng.dirichlet(np.ones(5), size=n).T  # (5, n), columns sum to 1
    weights[2, 0], weights[4, -1] = -0.25, -0.5
    weights[0] = 1.0 - weights[1:].sum(axis=0)  # positive: the others sum to less than 1
    elements = tuple((q * w) @ q.conj().T for w in weights)
    lowest = loop_lowest(elements)
    norms = np.array([np.linalg.norm(e) for e in elements])
    first = int(np.flatnonzero(~linalg.within_tol(-lowest, 1e-10, norms))[0])
    assert first == 2
    with pytest.raises(NotPositive) as exc:
        Povm(elements)
    assert str(exc.value) == f"POVM element {first} has negative eigenvalue {lowest[first]:.3e}"
    assert exc.value.residuals["min_eigenvalue"] == float(np.min(lowest))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("degenerate", [False, True])
def test_tiled_phase_sums_and_probabilities_match_the_loops(n, degenerate):
    """Sum alpha_m P_m, formed on tiles (several at n = 64), and the
    preservation probabilities agree with the per-projector loops within
    4 n^(3/2) eps times their scale: ||sum||_F for the sum, 1 for the
    probabilities. The set is rebuilt without the eigenvector factor of
    spectral_decompose, so the phase sum takes the generic tiled path, the
    one superpose_operators takes over the same operators."""
    rng = np.random.default_rng(n)
    spectral = spectral_decompose(random_hermitian(rng, n, degenerate=degenerate)).projector_set()
    pset = ProjectorSet(spectral.projectors)
    assert not hasattr(pset, "_factor")
    phases = PhaseVector(random_phases(rng, len(pset)))
    psi = QuantumState(rng.normal(size=n) + 1j * rng.normal(size=n), normalize=True)
    u = random_unitary(rng, n)  # no mirror, so p'(m) differs from p(m)
    eps_n = 4.0 * n ** 1.5 * np.finfo(float).eps
    summed = sum(alpha * p for alpha, p in zip(phases.phases, pset.projectors))
    tiled = phase_superpose_projectors(pset, phases).matrix
    assert np.linalg.norm(tiled - summed) <= eps_n * max(1.0, np.linalg.norm(summed))
    superposed = superpose_operators(pset.to_operator_set(), phases).matrix
    np.testing.assert_array_equal(superposed, tiled, strict=True)
    moved = u @ psi.amplitudes
    before = [np.vdot(psi.amplitudes, p @ psi.amplitudes).real for p in pset.projectors]
    after = [np.vdot(moved, p @ moved).real for p in pset.projectors]
    report = verify_probability_preservation(u, pset, psi)
    assert all(type(x) is float for x in report.probabilities_before + report.probabilities_after)
    assert np.abs(np.array(report.probabilities_before) - before).max() <= eps_n
    assert np.abs(np.array(report.probabilities_after) - after).max() <= eps_n
    assert report.max_deviation == max(
        abs(b - a) for a, b in zip(report.probabilities_before, report.probabilities_after))


def test_planted_bad_pair_gives_the_loop_violation():
    for n in (3, 9, 32):
        u = random_unitary(np.random.default_rng(n), n)
        projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(n)]
        # tilt vector n-1 towards vector 1: still a rank-1 projector
        v = np.cos(1e-4) * u[:, n - 1] + np.sin(1e-4) * u[:, 1]
        projs[n - 1] = np.outer(v, v.conj())
        pairs = loop_pairs(projs)
        bad = np.argwhere(~linalg.within_tol(
            pairs, 1e-10, MeasurementOperatorSet(projs)._pair_scales))
        i, j = bad[0]
        assert (i, j) == (1, n - 1)
        with pytest.raises(InvalidProjectorSet) as exc:
            ProjectorSet(tuple(projs))
        assert str(exc.value) == (f"projectors ({i}, {j}) violate orthogonality "
                                  f"(residual {pairs[i, j]:.3e})")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([2, 3, 5, 8, 32]),
       st.sampled_from(["none", "both", "right_only"]))
def test_aggregate_check_raises_the_loop_violation(seed, n, plant):
    """The superposition rule judges the per-pair loop's aggregate, bit for bit: the sum of
    every ||M_i^dag M_j||_F (i != j), plus the completeness residual when it passes. A
    ``right_only`` plant leaves every left pair at 0 and breaks completeness instead."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, min(n, 9) + 1))
    family = orthogonal_family(rng, n, k)
    a, b = (int(x) for x in rng.choice(k, size=2, replace=False))
    if plant == "both":
        family[a] = family[a] + 1e-6 * family[b]
    elif plant == "right_only":
        # rows of M_a gain a component along the rows of M_b; columns do not
        x = random_unitary(rng, n)
        family[a] = family[a] + 1e-6 * (family[a] @ x @ family[b].conj().T @ family[b])
    aggregate, pairs, c = superposition_aggregate(family, 1e-10)
    threshold = 1e-10 * math.sqrt(n)
    opset = MeasurementOperatorSet(tuple(family))
    phases = PhaseVector(random_phases(rng, k))
    if aggregate <= threshold:
        if c <= threshold:
            superpose_operators(opset, phases)
        else:
            with pytest.raises(IncompleteSet):
                superpose_operators(opset, phases)
        return
    with pytest.raises(OrthogonalityViolation) as exc:
        superpose_operators(opset, phases)
    i, j = np.unravel_index(np.argmax(pairs), pairs.shape)
    assert str(exc.value) == (f"operators are not orthogonal within 1e-10: aggregate "
                              f"{aggregate:.3e} exceeds {threshold:.3e} (worst pair ({i}, {j}), "
                              f"residual {pairs[i, j]:.3e})")
    assert exc.value.residuals == {"orthogonality": aggregate}
    assert type(exc.value.residuals["orthogonality"]) is float


def test_residuals_of_a_32_projector_family_stay_within_budget():
    rng = np.random.default_rng(32)
    projs = tuple(rank1_projectors(rng, 32))
    unit = UnitaryOperator(random_unitary(rng, 32))
    pset = ProjectorSet(projs)
    opset = MeasurementOperatorSet(projs)
    phases = PhaseVector(random_phases(rng, 32))
    # every product of the failing family is formed before its violation is found
    failing = MeasurementOperatorSet(projs[:-1] + (projs[-1] + 1e-6 * projs[0],))
    res = object.__new__(ProjectorSet)._hold("projectors", MeasurementOperatorSet(projs)._stack)
    tracemalloc.start()
    try:
        res._admit(1e-10)
        res._lowest
        commutation_residuals(unit, pset)
        superpose_operators(opset, phases)
        with pytest.raises(OrthogonalityViolation):
            superpose_operators(failing, phases)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_a_pair_larger_than_the_stack_budget_still_validates():
    rng = np.random.default_rng(128)
    v = random_unitary(rng, 128)[:, :64]
    p = v @ v.conj().T
    projs = (p, np.eye(128) - p)
    assert linalg.stack_size(128) == 1
    np.testing.assert_array_equal(MeasurementOperatorSet(projs)._pairs, loop_pairs(projs), strict=True)
    assert len(ProjectorSet(projs)) == 2
    superpose_operators(MeasurementOperatorSet(projs), PhaseVector([1.0, -1.0]))


def family_counts(n):
    """One matrix, one full tile and a tile plus one: several tiles."""
    return (1, linalg.stack_size(n), linalg.stack_size(n) + 1)


def copied_tiles(ops):
    """The blocks of stack_size(n) matrices, each copied into a new array as
    every call made them before a family was held as one stack."""
    size = linalg.stack_size(len(ops[0]))
    return [(lo, np.array(ops[lo:lo + size])) for lo in range(0, len(ops), size)]


def value_or_error(call):
    """The call's value, or the type, message and residual bits of its error."""
    try:
        return call()
    except QmeasureError as exc:
        return type(exc), str(exc), {k: np.float64(v).tobytes() for k, v in exc.residuals.items()}


@pytest.mark.parametrize("n", DIMS)
def test_family_kernels_equal_the_per_operator_expressions(n, monkeypatch):
    """Kernels on tiles of a family's stack against the per-operator
    expressions, bit for bit, at three scales: probabilities, completeness
    (inf once the sum overflows), POVM elements with their verdict, and the
    generic commutators. The phase sum and the preservation probabilities
    are no per-operator sums; they equal the same expressions formed on
    copied tiles. The completeness gate is passed by hand, so that every
    kernel also runs on incomplete and overflowing families; the POVM's verdict
    is compared with the gate in place."""
    rng = np.random.default_rng(200 + n)
    u = UnitaryOperator(random_unitary(rng, n))
    psi = QuantumState(random_state(rng, n))
    moved = np.stack([psi.amplitudes, u.matrix @ psi.amplitudes], axis=1)
    for count in family_counts(n):
        phases = PhaseVector(random_phases(rng, count))
        for scale in SCALES:
            ops = tuple(scale * (rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))))
            opset = MeasurementOperatorSet(ops)
            with np.errstate(over="ignore", invalid="ignore"):
                total = sum(linalg.adjoint(m) @ m for m in ops)
                completeness = float(np.linalg.norm(total - np.eye(n)))
                probs = np.array([float(np.linalg.norm(m @ psi.amplitudes) ** 2) for m in ops])
                elements = tuple(linalg.adjoint(m) @ m for m in ops)
                commutators = [float(np.linalg.norm(commutator(u.matrix, m))) for m in ops]
                phase_sum = sum(np.tensordot(phases.phases[lo:lo + len(t)], t, axes=1)
                                for lo, t in copied_tiles(ops))
                preserved = np.concatenate([(moved.conj() * (t @ moved)).sum(axis=1).real
                                            for _, t in copied_tiles(ops)])
                expected_povm = value_or_error(lambda: Povm(elements))

                assert opset.completeness_residual == (
                    math.inf if math.isnan(completeness) else completeness)
                if scale > 1.0:
                    assert opset.completeness_residual == math.inf
                with monkeypatch.context() as patch:  # the gate passed by hand; no value faked
                    patch.setattr(measurement, "_require_complete", lambda opset, tol: None)
                    np.testing.assert_array_equal(outcome_probabilities(opset, psi), probs,
                                                  strict=True)
                    formed = value_or_error(lambda: povm_from_operators(opset))
                povm = value_or_error(lambda: povm_from_operators(opset))
                gated = value_or_error(lambda: measurement._require_complete(opset, linalg.DEFAULT_TOL))
                assert commutation_residuals(u, opset) == tuple(commutators)
                with monkeypatch.context() as patch:  # the sum as formed, before its unitarity check
                    judged = []
                    patch.setattr(linalg, "_require_unitary", lambda mat, tol: judged.append(mat))
                    phase_superpose_projectors(opset, phases)
                    np.testing.assert_array_equal(judged.pop(), phase_sum, strict=True)
                report = verify_probability_preservation(u, opset, psi)
            if isinstance(formed, Povm):  # proved, or judged as the POVM of its elements
                np.testing.assert_array_equal(formed._stack, np.array(elements), strict=True)
                assert all(not e.flags.writeable and e.base is formed._stack for e in formed.elements)
            else:  # unproved and refused as the POVM of its elements
                assert formed == expected_povm
            assert povm == gated  # no Gaussian family is complete: the gate alone refuses it
            np.testing.assert_array_equal(report.probabilities_before, preserved[:, 0], strict=True)
            np.testing.assert_array_equal(report.probabilities_after, preserved[:, 1], strict=True)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_povm_from_operators_takes_the_completeness_the_set_passed(n):
    """A complete family of scaled unitaries U_k / sqrt(count): the POVM's
    completeness residual, taken from the set's own, equals the sum
    of its own elements that a Povm forms, bit for bit."""
    rng = np.random.default_rng(90 + n)
    for count in family_counts(n):
        opset = MeasurementOperatorSet([random_unitary(rng, n) / math.sqrt(count)
                                        for _ in range(count)])
        povm = povm_from_operators(opset)
        summed = MeasurementOperatorSet(povm.elements)._completeness
        assert povm.residuals["completeness"] == summed == Povm(povm.elements).residuals[
            "completeness"]
        assert np.float64(summed).tobytes() == np.float64(opset.completeness_residual).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32])
def test_irm_povm_takes_the_completeness_the_unitary_passed(n):
    """{U^dag U} is judged with the unitarity_left its unitary passed, and that
    float is ||U^dag U - I||_F of the POVM's own element, bit for bit."""
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        u = random_unitary(rng, n)
        povm = irm_povm(u)
        left = UnitaryOperator(u).residuals["unitarity_left"]
        assert np.float64(povm.residuals["completeness"]).tobytes() == np.float64(left).tobytes()
        assert left == MeasurementOperatorSet(povm.elements)._completeness == Povm(
            povm.elements).residuals["completeness"]
        np.testing.assert_array_equal(povm.elements[0], u.conj().T @ u, strict=True)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_povm_probabilities_equal_the_per_element_traces(n):
    """tr(E_m rho), one product per tile, equals the loop's complex(np.trace(e @ rho)).real
    bit for bit (zero signs too): one element, a full tile and a tile plus one."""
    rng = np.random.default_rng(40 + n)
    rho = QuantumState(random_state(rng, n)).density_matrix()
    for count in family_counts(n):
        povm = povm_from_operators(MeasurementOperatorSet(
            [random_unitary(rng, n) / math.sqrt(count) for _ in range(count)]))
        expected = np.array([complex(np.trace(e @ rho.matrix)).real for e in povm.elements])
        probs = povm_probabilities(povm, rho)
        assert probs.tobytes() == expected.tobytes() and probs.flags.c_contiguous


def test_histogram_counts_equal_the_clip_form():
    """Counts from the running sum with its last entry inf equal those of the
    first inverse CDF (np.clip, np.searchsorted, np.minimum, np.bincount) on
    probabilities with -1e-17 entries, first and last, and a total below 1."""
    def clip_form(probs, shots, seed):
        cum = np.cumsum(np.clip(probs, 0.0, None))
        draws = np.random.default_rng(seed).random(shots)
        picks = np.minimum(np.searchsorted(cum, draws, side="right"), len(probs) - 1)
        return np.bincount(picks, minlength=len(probs))

    cases = ([-1e-17, 0.5, 0.5], [0.5, -1e-17, 0.5], [0.5, 0.5, -1e-17], [0.25, 0.25, 0.5 - 1e-9],
             [1.0], [0.3, 0.7])
    for probs in map(np.array, cases):
        for seed in range(10):
            np.testing.assert_array_equal(measurement._histogram(probs, 1000, seed),
                                          clip_form(probs, 1000, seed), strict=True)


@pytest.mark.parametrize("n", [4, 9, 32, 64])  # below 4, a full tile holds thousands
def test_judges_equal_the_per_matrix_expressions_on_one_and_several_tiles(n):
    """What the POVM and the projector judges read, formed under the judge's own
    errstate, against per-matrix ``np.linalg.norm`` and ``eigvalsh`` expressions, bit for
    bit, on stacks of one matrix, a full 128 KiB tile and a tile plus one, at three
    scales: Gaussian matrices (they fail hermiticity) and their Hermitian parts."""
    rng = np.random.default_rng(300 + n)
    for count in family_counts(n):
        for scale in SCALES:
            ops = scale * (rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n)))
            for mats in (ops, (ops + ops.conj().transpose(0, 2, 1)) / 2.0):
                with np.errstate(over="ignore", invalid="ignore"):
                    norms = np.array([np.linalg.norm(m) for m in mats])
                    hermiticity = np.array([np.linalg.norm(m - m.conj().T) for m in mats])
                    completeness = float(np.linalg.norm(sum(mats) - np.eye(n)))
                    small = count <= 16  # the loop over a full tile's pairs is slow at small n
                    pairs = loop_pairs(mats) if small else None
                for cls in (Povm, ProjectorSet):
                    res, failure = admitted(cls, mats)
                    assert failure is not None  # neither Gaussian nor Hermitian parts pass
                    np.testing.assert_array_equal(res._norms, norms, strict=True)
                    np.testing.assert_array_equal(res._hermiticity, hermiticity, strict=True)
                    assert np.float64(res._completeness).tobytes() == np.float64(completeness).tobytes()
                    np.testing.assert_array_equal(res._lowest, loop_lowest(mats), strict=True)
                    if small:
                        np.testing.assert_array_equal(res._pairs, pairs, strict=True)


def test_family_calls_stay_within_budget():
    """A 64-operator family at n = 64 (a 4 MiB stack, built before tracing):
    each call peaks within 1 MiB of temporaries, povm_from_operators within
    1 MiB on top of the POVM's own 4 MiB stack."""
    rng = np.random.default_rng(64)
    opset = MeasurementOperatorSet(tuple(random_unitary(rng, 64) / 8.0 for _ in range(64)))
    psi = QuantumState(random_state(rng, 64))
    stack_bytes = opset._stack.nbytes
    assert stack_bytes == 4 << 20
    calls = {
        "completeness_residual": lambda: opset.completeness_residual,
        "outcome_probabilities": lambda: outcome_probabilities(opset, psi),
        "sample_histogram": lambda: sample_histogram(opset, psi, 1000, 7),
        "povm_from_operators": lambda: povm_from_operators(opset),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            result = call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
            del result
    finally:
        tracemalloc.stop()
    assert opset.completeness_residual <= 1e-10
    budget = {name: 1 << 20 for name in calls}
    budget["povm_from_operators"] += stack_bytes
    assert {name: peak <= budget[name] for name, peak in peaks.items()} == dict.fromkeys(calls, True)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 32])
def test_povm_elements_equal_the_tiled_products_bit_for_bit(n):
    """Every family forms its elements tile by tile into one array: each element is, bit for
    bit, the product ``matmul(_adjoint(tile), tile, out=...)`` forms on its tile, and the
    adjoint's product with the matrix. One operator, a full tile and a tile plus one."""
    rng = np.random.default_rng(100 + n)
    for count in family_counts(n):
        opset = MeasurementOperatorSet([random_unitary(rng, n) / math.sqrt(count)
                                        for _ in range(count)])
        tiled = np.empty_like(opset._stack)
        for lo, tile in linalg.stacks(opset._stack):
            np.matmul(linalg._adjoint(tile), tile, out=tiled[lo:lo + len(tile)])
        povm = povm_from_operators(opset)
        np.testing.assert_array_equal(povm._stack, tiled, strict=True)
        for element, m in zip(povm.elements, opset.operators):
            np.testing.assert_array_equal(element, linalg._adjoint(m) @ m, strict=True)
        assert povm.records[0].proved and povm.records[0].passed


def test_library_sets_are_not_stacked_again(corpus, monkeypatch):
    """Every kernel reads a library family through its one stack: while the
    measure_small op sequence, the judges and mirror checks on file-style
    and spectral sets, the preservation check and the Bell comparison run,
    linalg.stacks may not receive a tuple or list of matrices to copy."""
    rng = np.random.default_rng(15)
    stacks = linalg.stacks

    def guarded(mats):
        assert not isinstance(mats, (tuple, list)), "a family was stacked again"
        return stacks(mats)

    monkeypatch.setattr(linalg, "stacks", guarded)
    families = [orthogonal_family(rng, n, n) for n in (2, 4, 8)]
    families += [[np.outer(v, v.conj()) for v in random_unitary(rng, n).T] for n in (2, 4, 8)]
    for ops in families:
        n = len(ops[0])
        opset = MeasurementOperatorSet(ops)
        psi = QuantumState(random_state(rng, n))
        probs = outcome_probabilities(opset, psi)
        apply_outcome(opset, psi, int(np.argmax(probs)))
        sample_histogram(opset, psi, 1000, 3)
        truth_protocol(random_unitary(rng, n), psi)
        povm_from_operators(opset)
        classify_measurement(opset)
    mirror_ = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=4)))
    for index in range(4):
        bell_comparison(index, mirror_)
    doc = fileio.load_operator_file(str(corpus / "projectors_n4.json"))
    spectral = spectral_decompose(random_hermitian(rng, 8, degenerate=True)).projector_set()
    for pset in (ProjectorSet(doc.matrices), spectral):
        phases = PhaseVector(random_phases(rng, len(pset)))
        mirror_ = extend_mirror(phases, pset)
        is_mirror(mirror_.unitary, pset)
        classify_measurement(pset.to_operator_set())
        psi = QuantumState(random_state(rng, pset.dim))
        verify_probability_preservation(random_unitary(rng, pset.dim), pset, psi)
