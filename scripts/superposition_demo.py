#!/usr/bin/env python3
"""Build unitaries out of measurement operators two ways and check both.

First: take a complete operator family with M_i^dag M_j = 0 for i != j
(group indicators U D_m V over a partition of basis indices), attach
unimodular phases, and sum. Second: phase-combine the spectral projectors of a random
observable A into sum_m e^{i lambda_m} P_m and compare against the closed
form V diag(e^{i w}) V^dag of e^{iA} from numpy's eigh.

Usage: python3 scripts/superposition_demo.py [--families 100] [--seed 2]
"""

import argparse

import numpy as np

from qmeasure.measurement import MeasurementOperatorSet, spectral_decompose
from qmeasure.reversible import PhaseVector, exp_observable, superpose_operators


def haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def indicator_family(rng, n, k):
    """k operators U D_m V, with D_m the indicator of one block of a random
    partition of range(n); pairwise orthogonal and complete."""
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    labels = rng.integers(0, k, size=n)
    labels[rng.permutation(n)[:k]] = np.arange(k)  # no empty blocks
    ops = []
    for m in range(k):
        d = np.diag((labels == m).astype(np.complex128))
        ops.append(u @ d @ v)
    return tuple(ops)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    worst = 0.0
    for _ in range(args.families):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        opset = MeasurementOperatorSet(indicator_family(rng, n, k))
        phases = PhaseVector(np.exp(1j * rng.uniform(0, 2 * np.pi, size=k)))
        u = superpose_operators(opset, phases)
        worst = max(worst, *u.residuals.values())
    print(f"{args.families} operator families -> unitary superpositions, "
          f"worst unitarity residual {worst:.3e}")

    worst = 0.0
    for _ in range(args.families):
        n = int(rng.integers(2, 9))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = 0.5 * (z + z.conj().T)
        u = exp_observable(spectral_decompose(a))
        w, v = np.linalg.eigh(a)
        worst = max(worst, float(np.linalg.norm(u.matrix - (v * np.exp(1j * w)) @ v.conj().T)))
    print(f"{args.families} observables: spectral e^{{iA}} vs eigh closed form, "
          f"worst Frobenius gap {worst:.3e}")


if __name__ == "__main__":
    main()
