"""Exact computational models of the extended affine symmetric group, the
affine Hecke algebra, the affine q-Schur algebra, and a quantum group of
affine type acting on tensor space, all over Z[v, v^-1] with q = v^2."""

from affineschur._backend import BACKEND
from affineschur.laurent import Laurent, quantum_integer
from affineschur.weyl import (
    ParabolicIndex,
    WindowPerm,
    bruhat_leq,
    coset_decompose,
    double_coset_rep,
    enumerate_up_to_length,
    is_distinguished,
    longest_double_coset_elt,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Laurent",
    "quantum_integer",
    "WindowPerm",
    "ParabolicIndex",
    "bruhat_leq",
    "coset_decompose",
    "double_coset_rep",
    "enumerate_up_to_length",
    "is_distinguished",
    "longest_double_coset_elt",
]
