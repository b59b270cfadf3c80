"""Reference computations the benchmark checks pointerlab's outputs against.

Everything here is written from the closed forms with plain numpy and
imports nothing from pointerlab, so a fault in the library cannot hide by
agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Local eigenvectors by hand, so the joint populations need no eigensolver.
SIGMA_X_EIGENVECTORS = (np.array([1, 1]) / math.sqrt(2), np.array([1, -1]) / math.sqrt(2))
SIGMA_Z_EIGENVECTORS = (np.array([1, 0]), np.array([0, 1]))


def bloch(theta: float, phi: float) -> np.ndarray:
    """cos(theta/2)|up> + exp(i phi) sin(theta/2)|down>."""
    return np.array(
        [math.cos(theta / 2), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)]
    )


def pair(theta: float, phi: float) -> np.ndarray:
    """c1|up,down> + c2|down,up>, the anticorrelated pair of the epr scenario."""
    c1, c2 = bloch(theta, phi)
    return np.array([0, c1, c2, 0], dtype=complex)


def sigma_z_average(psi: np.ndarray) -> float:
    return float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)


def weak_value(observable: np.ndarray, initial: np.ndarray, final: np.ndarray) -> complex:
    """<F|A|I> / <F|I>."""
    return complex(final.conj() @ observable @ initial) / complex(final.conj() @ initial)


def noselect_mean(x0: float, impulse: float, psi: np.ndarray) -> float:
    """Unselected pointer mean under sigma_z coupling: x0 + g t <sigma_z>."""
    return x0 + impulse * sigma_z_average(psi)


def postselect_mean(x0: float, impulse: float, initial: np.ndarray, final: np.ndarray) -> float:
    """First-order post-selected pointer mean: x0 + g t Re(A_w)."""
    return x0 + impulse * weak_value(SIGMA_Z, initial, final).real


def shrinks_quadratically(impulses, defects, floor: float = 1e-12) -> bool:
    """Each defect is at most its larger neighbour's times the squared impulse ratio.

    ``impulses`` ascend. A defect at or below ``floor`` sits at roundoff and
    passes.
    """
    pairs = zip(impulses, impulses[1:], defects, defects[1:])
    return all(d_lo <= max(d_hi * (g_lo / g_hi) ** 2, floor) for g_lo, g_hi, d_lo, d_hi in pairs)


def epr_populations(psi: np.ndarray) -> list[float]:
    """Populations of the product eigenvectors of sigma_x (first) and sigma_z (second)."""
    return sorted(
        float(abs(np.kron(u, v).conj() @ psi) ** 2)
        for u in SIGMA_X_EIGENVECTORS
        for v in SIGMA_Z_EIGENVECTORS
    )


def reduced_apparatus(amplitudes: np.ndarray, system_dim: int) -> np.ndarray:
    """M^T M* with M the amplitudes as (system, apparatus): the system traced out."""
    m = np.asarray(amplitudes).reshape(system_dim, -1)
    return m.T @ m.conj()


def product_mixture(weights, factors_a, factors_b) -> np.ndarray:
    """sum_k w_k |a_k b_k><a_k b_k|."""
    out = 0
    for w, a, b in zip(weights, factors_a, factors_b):
        v = np.kron(a, b)
        out = out + w * np.outer(v, v.conj())
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def ppt_min(amplitudes: np.ndarray, system_dim: int, dim_a: int, dim_b: int) -> float:
    """Smallest eigenvalue of the apparatus state partially transposed on B.

    Built straight from the amplitudes psi[s, i, j]: the transposed matrix
    has entries sum_s psi[s, i, l] psi*[s, k, j] at ((i, j), (k, l)).
    """
    psi = np.asarray(amplitudes).reshape(system_dim, dim_a, dim_b)
    pt = np.einsum("sil,skj->ijkl", psi, psi.conj()).reshape(dim_a * dim_b, -1)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])
