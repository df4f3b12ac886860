"""Bundled operator and state constants: Pauli matrices, Hadamard, CNOT,
computational-basis projectors, and the four Bell vectors."""

from __future__ import annotations

import math

import numpy as np

from .linalg import freeze

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

PAULI_X = freeze(np.array([[0, 1], [1, 0]], dtype=np.complex128))
PAULI_Y = freeze(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
PAULI_Z = freeze(np.array([[1, 0], [0, -1]], dtype=np.complex128))
HADAMARD = freeze(_INV_SQRT2 * np.array([[1, 1], [1, -1]], dtype=np.complex128))

# Two-qubit basis order |00>, |01>, |10>, |11>; control is the first qubit.
CNOT = freeze(np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=np.complex128))

# CNOT . (H x I): maps |00> to the maximally entangled phi_plus state.
BELL_CIRCUIT = freeze(CNOT @ np.kron(HADAMARD, np.eye(2, dtype=np.complex128)))


def computational_projectors(dim: int) -> list[np.ndarray]:
    """Rank-1 projectors |k><k| onto the computational basis of C^dim."""
    return [np.diag(row) for row in np.eye(dim, dtype=np.complex128)]


# Maximally entangled two-qubit vectors, indexed 0..3 in this order.
BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
BELL_VECTORS = (
    freeze(_INV_SQRT2 * np.array([1, 0, 0, 1], dtype=np.complex128)),
    freeze(_INV_SQRT2 * np.array([1, 0, 0, -1], dtype=np.complex128)),
    freeze(_INV_SQRT2 * np.array([0, 1, 1, 0], dtype=np.complex128)),
    freeze(_INV_SQRT2 * np.array([0, 1, -1, 0], dtype=np.complex128)),
)
