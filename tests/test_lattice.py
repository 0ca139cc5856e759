"""Integer linear algebra: Smith form, invariant factors, integer left kernel."""

import numpy as np

from torichk import lattice


def _det(M):
    """Exact determinant of a square integer matrix, by Bareiss elimination."""
    M = [list(row) for row in M]
    sign, prev = 1, 1
    for k in range(len(M) - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, len(M)) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, len(M)):
            for j in range(k + 1, len(M)):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if M else 1


def _verify_decomposition(A):
    D, S, T = lattice.smith_normal_form(A)
    A = np.array(A, dtype=object)
    D_, S_, T_ = (np.array(M, dtype=object) for M in (D, S, T))
    assert np.array_equal(S_ @ A @ T_, D_)
    # diagonal, nonnegative, divisibility chain
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d != 0]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert _det(S) in (1, -1)
    assert _det(T) in (1, -1)
    return diag


def test_smith_identity():
    assert _verify_decomposition([[1, 0], [0, 1]]) == [1, 1]


def test_smith_index_two_pair():
    # the designed-to-fail normals: sublattice of index 2
    diag = _verify_decomposition([[1, 1], [1, -1]])
    assert diag == [1, 2]


def test_smith_rectangular():
    assert _verify_decomposition([[2, 4, 4]]) == [2]
    assert _verify_decomposition([[1], [2], [3]]) == [1]


def test_smith_zero_matrix():
    assert _verify_decomposition([[0, 0], [0, 0]]) == [0, 0]


def test_smith_classic_example():
    diag = _verify_decomposition([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]


def test_exact_determinant():
    assert _det([[1, 1], [1, -1]]) == -2
    assert _det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert _det([[1, 2], [2, 4]]) == 0
    assert _det([[7]]) == 7
    rng = np.random.default_rng(20261021)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        M = rng.integers(-5, 6, (k, k))
        assert _det(M.tolist()) == round(np.linalg.det(M.astype(float)))


def test_smith_random_matrices():
    # up to 8 rows: a stratum of up to 8 active flats at n <= 4
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 5))
        A = rng.integers(-9, 10, (rows, cols)).tolist()
        _verify_decomposition(A)


def test_invariant_factors_do_not_see_row_order_or_row_signs():
    # the strata share one Smith form per set of active normals, keyed by the
    # sorted rows, whatever order their flats come in: that rests on this
    rng = np.random.default_rng(20261021)
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        A = rng.integers(-9, 10, (rows, int(rng.integers(1, 5))))
        moved = (A * rng.choice((-1, 1), (rows, 1)))[rng.permutation(rows)]
        assert lattice.invariant_factors(moved.tolist()) == lattice.invariant_factors(A.tolist())


def test_invariant_factors_and_rank():
    assert lattice.invariant_factors([[1, 1], [1, -1]]) == [1, 2]
    assert len(lattice.invariant_factors([[1, 0], [0, 1], [1, 1]])) == 2
    assert len(lattice.invariant_factors([[2, 4], [1, 2]])) == 1
    assert lattice.invariant_factors([[0, 0]]) == []


def test_rows_of_s_past_the_rank_span_the_left_kernel():
    # S is unimodular, so the rows of S that A sends to zero are a Z-basis
    # of the integer left kernel when they are exactly the m - r past the rank
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        A = rng.integers(-4, 5, (m, int(rng.integers(1, 5)))).tolist()
        _, S, _ = lattice.smith_normal_form(A)
        r = len(lattice.invariant_factors(A))
        SA = np.array(S, dtype=object) @ np.array(A, dtype=object)
        assert [i for i in range(m) if not SA[i].any()] == list(range(r, m))
