"""The four benchmark workloads: their inputs, one op each, and the gate
that checks every op against an independent numpy reference.

An op is the unit ``run.py`` times. ``run_op`` is the only timed call;
``check`` runs after it, outside the timed region, and returns the worst
scaled residual ``|got - ref| / max(1, |ref|_F)`` of that op, or ``inf``
when an exact check (exit code, verdict, golden bytes, counts) fails.
"""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qmeasure as qm
from qmeasure import fileio

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INF = math.inf

# An op passes when its worst scaled residual is at most the library's own
# default residual tolerance.
GATE_TOL = 1e-10
SHOTS_SMALL = 1000
SHOTS_CLI = 10000


def scaled(got, ref) -> float:
    got = np.asarray(got, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    if got.shape != ref.shape:
        return INF
    return float(np.linalg.norm(got - ref)) / max(1.0, float(np.linalg.norm(ref)))


def exact(ok: bool) -> float:
    return 0.0 if ok else INF


def reference_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Outcome counts for ``shots`` PCG64 draws mapped through the inverse
    CDF of ``probs``, the sampling rule the library documents."""
    draws = np.random.default_rng(seed).random(shots)
    picks = np.minimum(np.searchsorted(np.cumsum(probs), draws, side="right"),
                       len(probs) - 1)
    return np.bincount(picks, minlength=len(probs))


def child_env() -> dict[str, str]:
    """The benchmark's own environment (BLAS threads already pinned) with
    the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Child:
    """One finished subprocess."""

    stdout: bytes
    code: int
    maxrss_kb: int


def run_child(argv: list[str], stderr_path: Path) -> Child:
    """Run ``argv`` from the checkout root and reap it with ``wait4`` so its
    own peak RSS is known."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(out, proc.returncode, usage.ru_maxrss)


class Workload:
    """Base: ``cycle`` is the number of ops after which the op mix repeats.
    The yardstick is retimed every ``yardstick_every`` seconds as the median
    of ``yardstick_repeats`` runs."""

    name = ""
    cycle = 1
    in_process = True
    yardstick_every = 0.25
    yardstick_repeats = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Generate inputs and write files; counted in ``setup_s``."""

    def references(self) -> None:
        """Precompute the numpy references; not counted anywhere."""

    def run_op(self, i: int, traced: bool = False):
        raise NotImplementedError

    def check(self, i: int, result) -> float:
        raise NotImplementedError

    def yardstick(self) -> None:
        """A fixed task of the same kind as the op that never touches
        qmeasure. ``run.py`` times it between ops, so op times can be
        read in units of it, which cancels the machine's speed of the
        moment."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# in-process workloads


class SpectralN32(Workload):
    """n=32 Hermitians with a Haar eigenbasis, alternating a nondegenerate
    and a half-degenerate spectrum: eigensolver plus N^2 projector products."""

    name = "spectral_n32"
    n = 32
    n_inputs = 16
    cycle = n_inputs

    def setup(self):
        self.inputs = []
        for k in range(self.n_inputs):
            a, mult = inputs.hermitian(self.rng, self.n, degenerate=bool(k % 2))
            self.inputs.append({
                "a": a,
                "mult": mult,
                "angles": inputs.phases(self.rng, len(mult)),
                "psi": inputs.haar_state(self.rng, self.n),
            })

    def references(self):
        self.refs = []
        for inp in self.inputs:
            w, v = np.linalg.eigh(inp["a"])
            bounds = np.concatenate([[0], np.cumsum(inp["mult"])])
            groups = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
            projs = [v[:, g] @ v[:, g].conj().T for g in groups]
            phases = np.exp(1j * inp["angles"])
            self.refs.append({
                "values": np.array([w[g].mean() for g in groups]),
                "projs": projs,
                "expm": (v * np.exp(1j * w)) @ v.conj().T,
                "mirror": sum(a * p for a, p in zip(phases, projs)),
                "probs": np.array([np.linalg.norm(p @ inp["psi"]) ** 2 for p in projs]),
            })

    def yardstick(self):
        # Jacobi-style column rotations and n x n products in plain numpy.
        a = self.inputs[0]["a"]
        w = a.copy()
        for p in range(0, self.n, 2):
            for q in range(p + 1, self.n):
                col = w[:, p].copy()
                w[:, p] = 0.6 * col + 0.8 * w[:, q]
                w[:, q] = -0.8 * col + 0.6 * w[:, q]
        for _ in range(self.n):
            w = (w @ a) / np.linalg.norm(w)

    def run_op(self, i, traced=False):
        inp = self.inputs[i % self.n_inputs]
        obs = qm.spectral_decompose(inp["a"])
        pset = obs.projector_set()
        expo = qm.exp_observable(obs)
        mirror = qm.extend_mirror(qm.PhaseVector.from_angles(inp["angles"]), pset)
        report = qm.verify_probability_preservation(
            mirror.unitary, pset, qm.QuantumState(inp["psi"]))
        return obs, pset, expo, mirror, report

    def check(self, i, result):
        obs, pset, expo, mirror, report = result
        ref = self.refs[i % self.n_inputs]
        if len(obs.spectrum) != len(ref["values"]) or len(pset) != len(ref["values"]):
            return INF
        res = [scaled(obs.eigenvalues, ref["values"]),
               scaled(expo.matrix, ref["expm"]),
               scaled(mirror.unitary.matrix, ref["mirror"]),
               scaled(report.probabilities_before, ref["probs"]),
               scaled(report.probabilities_after, ref["probs"]),
               report.max_deviation]
        res += [scaled(p, rp) for (_, p), rp in zip(obs.spectrum, ref["projs"])]
        return max(res)


BELL_REF = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                    dtype=np.complex128) / math.sqrt(2.0)
PARITY = (np.array([1, 0, 0, 1]), np.array([0, 1, 1, 0]))


class MeasureSmall(Workload):
    """n in {2, 4, 8}, rotated rank-1 projectors or a two-sided-orthogonal
    general family: per-call coercion and validation dominate."""

    name = "measure_small"
    dims = (2, 4, 8)
    n_inputs = 24  # each (dimension, family) pair four times
    cycle = n_inputs

    def setup(self):
        self.inputs = []
        for k in range(self.n_inputs):
            n = self.dims[k % 3]
            general = bool((k // 3) % 2)
            ops = (inputs.two_sided_family(self.rng, n) if general
                   else inputs.rank1_projectors(inputs.haar_unitary(self.rng, n)))
            inp = {
                "ops": ops,
                "psi": inputs.haar_state(self.rng, n),
                "u": inputs.haar_unitary(self.rng, n),
                "shot_seed": int(self.rng.integers(2**31)),
            }
            if n == 4:
                inp["bell_index"] = int(self.rng.integers(4))
                inp["mirror"] = np.diag(np.exp(1j * inputs.phases(self.rng, 4)))
            self.inputs.append(inp)

    def references(self):
        self.refs = []
        for inp in self.inputs:
            mapped = [m @ inp["psi"] for m in inp["ops"]]
            probs = np.array([np.linalg.norm(v) ** 2 for v in mapped])
            ref = {
                "probs": probs,
                "mapped": mapped,
                "counts": reference_counts(probs, SHOTS_SMALL, inp["shot_seed"]),
                "computed": inp["u"] @ inp["psi"],
            }
            if "bell_index" in inp:
                bell = BELL_REF[inp["bell_index"]]
                ref["external"] = np.array([np.sum(e * np.abs(bell) ** 2) for e in PARITY])
                ref["povm"] = [m.conj().T @ m for m in inp["ops"]]
            self.refs.append(ref)

    def yardstick(self):
        # Coercion, small products, norms and eigenvalues in plain numpy.
        for _ in range(40):
            for k in range(3):
                a = np.array(self.inputs[k]["ops"][0], dtype=np.complex128)
                b = a.conj().T @ a
                float(np.linalg.norm(b - np.eye(a.shape[0])))
                float(np.linalg.eigvalsh(b)[0])
                sum(abs(x) for x in a[0])

    def run_op(self, i, traced=False):
        inp = self.inputs[i % self.n_inputs]
        opset = qm.MeasurementOperatorSet(inp["ops"])
        psi = qm.QuantumState(inp["psi"])
        probs = qm.outcome_probabilities(opset, psi)
        record = qm.apply_outcome(opset, psi, int(np.argmax(probs)))
        counts = qm.sample_histogram(opset, psi, SHOTS_SMALL, inp["shot_seed"])
        truth = qm.truth_protocol(inp["u"], psi)
        povm = bell = None
        if "bell_index" in inp:
            povm = qm.povm_from_operators(opset)
            bell = qm.bell_comparison(inp["bell_index"], inp["mirror"])
        return probs, record, counts, truth, povm, bell

    def check(self, i, result):
        probs, record, counts, truth, povm, bell = result
        inp, ref = self.inputs[i % self.n_inputs], self.refs[i % self.n_inputs]
        m = record.outcome
        res = [scaled(probs, ref["probs"]),
               scaled(record.probability, ref["probs"][m]),
               scaled(record.post_state.amplitudes,
                      ref["mapped"][m] / np.linalg.norm(ref["mapped"][m])),
               exact(np.array_equal(counts, ref["counts"])),
               scaled(truth.computed.amplitudes, ref["computed"]),
               scaled(truth.restored.amplitudes, inp["psi"]),
               abs(truth.fidelity - 1.0),
               truth.identity_residual]
        if "bell_index" in inp:
            res += [scaled(e, r) for e, r in zip(povm.elements, ref["povm"])]
            res += [scaled(bell.external_probabilities, ref["external"]),
                    abs(bell.internal_probability - 1.0),
                    bell.preservation.max_deviation]
        return max(res)


# ---------------------------------------------------------------------------
# CLI workloads: an op is one child process


class CliWorkload(Workload):
    in_process = False
    yardstick_every = 2.0  # a yardstick child costs about half an op
    yardstick_repeats = 1

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def run_op(self, i, traced=False):
        args = self.argv(i)
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"),
                   str(self.workdir / "spans.json"), *args]
        else:
            cmd = [sys.executable, "-m", "qmeasure", *args]
        return run_child(cmd, self.workdir / "stderr.txt")

    def yardstick(self):
        # Interpreter start and the numpy import, as every CLI call does.
        run_child([sys.executable, "-c", "import numpy"], self.workdir / "stderr.txt")

    def take_spans(self) -> list:
        """Spans the traced child of the last op wrote; the file is removed
        so a child that wrote none cannot pass off stale spans."""
        path = self.workdir / "spans.json"
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        path.unlink()
        return spans


def golden_cases() -> list[tuple[str, list[str], int]]:
    """``GOLDEN_CASES`` read from tests/test_cli.py without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "GOLDEN_CASES" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py defines no GOLDEN_CASES")


class CliCorpus(CliWorkload):
    """The 20 golden CLI cases at n <= 4: start-up and imports dominate."""

    name = "cli_corpus"

    def setup(self):
        self.cases = golden_cases()
        self.cycle = len(self.cases)
        self.offset = int(self.rng.integers(self.cycle))
        self.golden = [(ROOT / "tests" / "golden" / f"{name}.txt").read_bytes()
                       for name, _, _ in self.cases]

    def _case(self, i):
        return (self.offset + i) % self.cycle

    def argv(self, i):
        return list(self.cases[self._case(i)][1])

    def check(self, i, child):
        # The golden file is the reference: byte-identical stdout has
        # residual 0, anything else fails the op.
        k = self._case(i)
        return exact(child.code == self.cases[k][2] and child.stdout == self.golden[k])


def complex_pairs(node) -> np.ndarray:
    arr = np.asarray(node, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class CliGenerated(CliWorkload):
    """Five commands on a seeded n=32 Haar-rotated rank-1 projector set:
    JSON parsing and projector-set validation dominate."""

    name = "cli_generated"
    n = 32
    cycle = 5

    def setup(self):
        n = self.n
        basis = inputs.haar_unitary(self.rng, n)
        self.basis = basis
        self.projs = inputs.rank1_projectors(basis)
        self.psi = inputs.haar_state(self.rng, n)
        self.check_angles = inputs.phases(self.rng, n)
        self.build_angles = inputs.phases(self.rng, n)
        self.shot_seed = int(self.rng.integers(2**31))
        w = self.workdir
        self.paths = {k: str((w / f"{k}.json").relative_to(ROOT))
                      for k in ("projectors", "state", "mirror", "built")}
        mirror = (basis * np.exp(1j * self.check_angles)) @ basis.conj().T
        fileio.save_operator_file(str(ROOT / self.paths["projectors"]), "projector_set",
                                  self.projs)
        fileio.save_state_file(str(ROOT / self.paths["state"]), self.psi)
        fileio.save_operator_file(str(ROOT / self.paths["mirror"]), "unitary", [mirror])

    def argv(self, i):
        p = self.paths
        machine = ["--format", "machine"]
        return [
            ["validate", p["projectors"]],
            ["classify", p["projectors"]],
            ["measure", p["projectors"], p["state"], "--shots", str(SHOTS_CLI),
             "--seed", str(self.shot_seed)],
            ["mirror", "build", "--projectors", p["projectors"], "--angles",
             ",".join(repr(float(a)) for a in self.build_angles), "--out", p["built"]],
            ["mirror", "check", p["mirror"], p["projectors"], "--state", p["state"]],
        ][i % self.cycle] + machine

    def references(self):
        n, projs = self.n, self.projs
        eye = np.eye(n)
        self.ref_probs = np.abs(self.basis.conj().T @ self.psi) ** 2
        self.ref_counts = reference_counts(self.ref_probs, SHOTS_CLI, self.shot_seed)
        self.ref_completeness = float(np.linalg.norm(sum(projs) - eye))
        self.ref_hermiticity = max(float(np.linalg.norm(p - p.conj().T)) for p in projs)
        norms = [float(np.linalg.norm(p)) for p in projs]
        self.ref_orthogonality = max(
            float(np.linalg.norm(pi @ pj - (pi if i == j else 0.0)))
            / max(1.0, norms[i] * norms[j])
            for i, pi in enumerate(projs) for j, pj in enumerate(projs))
        self.ref_built = (self.basis * np.exp(1j * self.build_angles)) @ self.basis.conj().T

    def check(self, i, child):
        if child.code != 0:
            return INF
        try:
            rep = json.loads(child.stdout)
        except ValueError:
            return INF
        if rep.get("verdict") != "pass":
            return INF
        r = rep["residuals"]
        kind = i % self.cycle
        limit = GATE_TOL * math.sqrt(self.n)  # tol * max(1, |I|_F)
        if kind == 0:
            return max(exact(rep["n_operators"] == self.n),
                       scaled(r["completeness"], self.ref_completeness),
                       scaled(r["hermiticity_max"], self.ref_hermiticity),
                       scaled(r["orthogonality_max"], self.ref_orthogonality))
        if kind == 1:
            return max(exact(rep["classification"] == "PROJECTIVE"),
                       scaled(r["completeness"], self.ref_completeness))
        if kind == 2:
            probs = np.array(rep["probabilities"])
            return max(scaled(probs, self.ref_probs),
                       scaled(r["probability_sum"], abs(self.ref_probs.sum() - 1.0)),
                       exact(rep["counts"] == self.ref_counts.tolist()))
        if kind == 3:
            matrix = complex_pairs(rep["matrix"])
            with open(ROOT / self.paths["built"], encoding="utf-8") as fh:
                written = complex_pairs(json.load(fh)["operators"][0]["matrix"])
            return max(scaled(matrix, self.ref_built),
                       exact(np.array_equal(written, matrix)),
                       exact(max(r["unitarity_left"], r["unitarity_right"],
                                 r["commutation_max"]) <= limit))
        return max(scaled(rep["probabilities_before"], self.ref_probs),
                   scaled(rep["probabilities_after"], self.ref_probs),
                   exact(r["commutation_max"] <= limit),
                   r["preservation_max"])


WORKLOADS = {cls.name: cls for cls in (CliCorpus, CliGenerated, SpectralN32, MeasureSmall)}
