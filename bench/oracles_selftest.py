"""Self-tests of the benchmark's reference computations (bench/oracles.py).

    python3 -m pytest -q bench/oracles_selftest.py
"""

import math

import numpy as np

import oracles


def test_bell_state_partial_transpose_minimum_is_minus_half():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert math.isclose(oracles.ppt_min(bell, 1, 2, 2), -0.5, abs_tol=1e-14)


def test_bell_state_carried_by_a_system_factor_keeps_its_witness():
    # |0>|Phi+> + |1>|Phi+> normalized: the system factor is traced out first.
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    psi = np.kron(np.array([1, 1]) / math.sqrt(2), bell)
    assert math.isclose(oracles.ppt_min(psi, 2, 2, 2), -0.5, abs_tol=1e-14)


def test_product_state_partial_transpose_is_nonnegative():
    rng = np.random.default_rng(7)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    assert oracles.ppt_min(psi, 1, 4, 3) >= -1e-14


def test_weak_value_by_hand():
    # <F| = (cos pi/8, sin pi/8), |I> = |+>: A_w = (c - s)/(c + s) = tan(pi/8).
    initial = oracles.bloch(math.pi / 2, 0.0)
    final = oracles.bloch(math.pi / 4, 0.0)
    value = oracles.weak_value(oracles.SIGMA_Z, initial, final)
    assert math.isclose(value.real, math.sqrt(2) - 1, rel_tol=1e-14)
    assert abs(value.imag) < 1e-15
    # |I> = (|0> + i|1>)/sqrt 2 post-selected on |0>: A_w = 1 exactly.
    circular = oracles.weak_value(
        oracles.SIGMA_Z, oracles.bloch(math.pi / 2, math.pi / 2), oracles.bloch(0.0, 0.0)
    )
    assert abs(circular - 1) < 1e-15


def test_noselect_closed_form():
    # theta = pi/3: <sigma_z> = 1/2, so an impulse of 0.2 moves the dial by 0.1.
    psi = oracles.bloch(math.pi / 3, 0.7)
    assert math.isclose(oracles.noselect_mean(0.3, 0.2, psi), 0.4, rel_tol=1e-14)


def test_quadratic_shrink_accepts_cubic_and_rejects_linear_decay():
    g = [1e-3 * 2**i for i in range(6)]
    assert oracles.shrinks_quadratically(g, [x**3 for x in g])
    assert not oracles.shrinks_quadratically(g, [x * 1e-3 for x in g])
    assert oracles.shrinks_quadratically(g, [1e-13] * len(g))


def test_singlet_populations_are_flat():
    singlet = oracles.pair(math.pi / 2, math.pi)
    assert np.allclose(oracles.epr_populations(singlet), [0.25] * 4, atol=1e-15)


def test_product_mixture_reconstructs_and_trace_distance_separates():
    up, down = np.array([1, 0]), np.array([0, 1])
    rho = oracles.product_mixture([0.5, 0.5], [up, down], [up, down])
    # sqrt(1/2)(|0>|00> + |1>|11>): tracing the system leaves the same mixture.
    psi = np.zeros(8)
    psi[0] = psi[7] = math.sqrt(0.5)
    assert oracles.trace_distance(rho, oracles.reduced_apparatus(psi, 2)) < 1e-15
    pure_up = oracles.product_mixture([1.0], [up], [up])
    pure_down = oracles.product_mixture([1.0], [down], [down])
    assert math.isclose(oracles.trace_distance(pure_up, pure_down), 1.0)
