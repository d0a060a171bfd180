"""Contract of the dense symmetric eigensolver, spectrum.symmetric_eigensystem.

Checked against closed forms, residuals, orthonormality, the trace and
Frobenius-norm invariants and sign changes of the characteristic polynomial.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from covertower import ConvergenceError, ValidationError
from covertower.cli import main as cli_main
from covertower.spectrum import symmetric_eigensystem


def assert_valid_eigensystem(a, atol_scale=1e-8):
    a = np.asarray(a, dtype=float)
    w, v = symmetric_eigensystem(a)
    n = a.shape[0]
    assert w.shape == (n,)
    assert v.shape == (n, n)
    assert np.all(np.diff(w) >= -1e-12)
    scale = max(1.0, float(np.max(np.abs(a))) if n else 1.0)
    # residual per eigenpair
    residual = np.max(np.abs(a @ v - v * w)) if n else 0.0
    assert residual <= atol_scale * scale, residual
    # orthonormal eigenvectors
    gram = v.T @ v - np.eye(n)
    assert np.max(np.abs(gram)) <= 1e-8
    # the eigenvalues carry the trace and the Frobenius norm of the matrix
    assert abs(np.sum(w) - np.trace(a)) <= atol_scale * scale * max(1, n)
    assert abs(np.sum(w**2) - np.sum(a**2)) <= atol_scale * scale**2 * max(1, n)
    # values-only solve agrees with the solve with vectors
    w_only, none = symmetric_eigensystem(a, vectors=False)
    assert none is None
    assert np.max(np.abs(w_only - w), initial=0.0) <= atol_scale * scale
    return w, v


class TestSmallAndDegenerate:
    def test_empty(self):
        w, v = symmetric_eigensystem(np.zeros((0, 0)))
        assert w.shape == (0,)
        assert v.shape == (0, 0)

    def test_one_by_one(self):
        w, v = symmetric_eigensystem(np.array([[7.0]]))
        assert w[0] == 7.0
        assert v[0, 0] == 1.0

    def test_zero_matrix(self):
        assert_valid_eigensystem(np.zeros((6, 6)))

    def test_diagonal(self):
        w, _ = assert_valid_eigensystem(np.diag([5.0, -3.0, 5.0, 0.0]))
        assert w.tolist() == [-3.0, 0.0, 5.0, 5.0]

    def test_two_by_two(self):
        w, _ = assert_valid_eigensystem(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(w, [0.0, 2.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            symmetric_eigensystem(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            symmetric_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStacks:
    """A (..., n, n) stack is solved matrix by matrix in one call."""

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(17)
        a = rng.integers(-4, 5, size=(2, 3, 5, 5)).astype(float)
        a = a + np.swapaxes(a, -1, -2)
        a[0, 1] = np.diag([2.0, -1.0, 2.0, 0.0, 3.0])  # a repeated eigenvalue
        w, v = symmetric_eigensystem(a)
        assert w.shape == (2, 3, 5) and v.shape == (2, 3, 5, 5)
        values, none = symmetric_eigensystem(a, vectors=False)
        assert none is None
        for index in np.ndindex(2, 3):
            w1, v1 = symmetric_eigensystem(a[index])
            assert np.array_equal(w[index], w1) and np.array_equal(v[index], v1)
            assert np.array_equal(values[index], symmetric_eigensystem(a[index], False)[0])

    def test_empty_and_one_by_one_stacks(self):
        w, v = symmetric_eigensystem(np.zeros((3, 0, 0)))
        assert w.shape == (3, 0) and v.shape == (3, 0, 0)
        w, v = symmetric_eigensystem(np.array([[[7.0]], [[-2.0]]]))
        assert w.tolist() == [[7.0], [-2.0]]
        assert v.tolist() == [[[1.0]], [[1.0]]]
        assert symmetric_eigensystem(np.array([[[7.0]]]), vectors=False)[1] is None

    def test_one_asymmetric_matrix_rejects_the_stack(self):
        a = np.zeros((4, 3, 3))
        a[2, 0, 1] = 1.0
        with pytest.raises(ValidationError, match="symmetric"):
            symmetric_eigensystem(a)

    def test_rejects_non_square_stacks_and_vectors(self):
        for shape in [(2, 3, 4), (3,)]:
            with pytest.raises(ValidationError, match="square"):
                symmetric_eigensystem(np.zeros(shape))


class TestClosedForms:
    def test_doubled_four_cycle_laplacian(self):
        lap = np.array(
            [[4, -2, 0, -2], [-2, 4, -2, 0], [0, -2, 4, -2], [-2, 0, -2, 4]],
            dtype=float,
        )
        w, _ = assert_valid_eigensystem(lap)
        assert np.allclose(w, [0.0, 4.0, 4.0, 8.0], atol=1e-12)

    def test_cycle_laplacian_closed_form(self):
        n = 9
        lap = np.zeros((n, n))
        for i in range(n):
            lap[i, i] = 2.0
            lap[i, (i + 1) % n] -= 1.0
            lap[(i + 1) % n, i] -= 1.0
        expected = sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n))
        w, _ = assert_valid_eigensystem(lap)
        assert np.allclose(w, expected, atol=1e-12)

    def test_complete_graph_multiplicity(self):
        n = 10
        lap = n * np.eye(n) - np.ones((n, n))
        w, _ = assert_valid_eigensystem(lap)
        assert abs(w[0]) < 1e-12
        assert np.allclose(w[1:], n, atol=1e-12)


class TestRandomMatrices:
    @pytest.mark.parametrize("n", [3, 5, 8, 13, 21, 34, 55])
    def test_random_integer_symmetric(self, n):
        rng = np.random.default_rng(1000 + n)
        m = rng.integers(-6, 7, size=(n, n)).astype(float)
        assert_valid_eigensystem(m + m.T)

    @pytest.mark.parametrize("seed", range(8))
    def test_characteristic_sign_oracle(self, seed):
        """det(A - t I) changes sign across each computed eigenvalue interval."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        m = rng.integers(-4, 5, size=(n, n)).astype(float)
        a = m + m.T
        w, _ = symmetric_eigensystem(a)
        distinct = [w[0]]
        for x in w[1:]:
            if x - distinct[-1] > 1e-6:
                distinct.append(x)
        probes = [distinct[0] - 1.0]
        for left, right in zip(distinct, distinct[1:]):
            probes.append((left + right) / 2.0)
        probes.append(distinct[-1] + 1.0)
        # det(A - tI) = prod(lambda_i - t): its sign between eigenvalues is
        # (-1)^(number of eigenvalues below the probe)
        for probe in probes:
            below = int(np.sum(w < probe))
            det = float(np.linalg.det(a - probe * np.eye(n)))
            expected_sign = (-1.0) ** below
            assert math.copysign(1.0, det) == expected_sign, (probe, det, below)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(99)
        m = rng.integers(-5, 6, size=(20, 20)).astype(float)
        a = m + m.T
        w1, v1 = symmetric_eigensystem(a)
        w2, v2 = symmetric_eigensystem(a)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)


class TestSolverFailure:
    def test_lapack_failure_is_a_convergence_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        for vectors in (True, False):
            with pytest.raises(ConvergenceError):
                symmetric_eigensystem(np.eye(3), vectors=vectors)
        assert cli_main(["spectrum", "cycle:4"]) == 5
        assert "ConvergenceError" in capsys.readouterr().err
