"""Exact integer lattice algebra.

Smith normal form over Z with the two unimodular transforms, and the
invariant factors the classification reads from it: the active normals of a
stratum extend to a Z-basis exactly when their invariant factors are all 1
and there are as many as normals.  Everything here works on Python ints, so
there is no overflow and no floating-point tolerance anywhere.
"""


def smith_normal_form(mat):
    """Return (D, S, T) with D = S @ mat @ T, S and T unimodular.

    D is diagonal with d_1 | d_2 | ... | d_r, d_i >= 0.  With r the number
    of nonzero d_i, the rows of S past the first r are a Z-basis of the
    integer left kernel {y : y @ mat = 0}.
    """
    A = [[int(x) for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    S = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # a row operation acts on the rows of A and S, a column operation on
    # the columns of A and T, that is, on every row of A + T
    t = 0
    while t < min(m, n):
        # the smallest nonzero entry of the trailing submatrix, first in row order
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        for M in (A, S):
            M[t], M[i] = M[i], M[t]
        for row in A + T:
            row[t], row[j] = row[j], row[t]

        p = A[t][t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // p
                for M in (A, S):
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                dirty = dirty or A[i][t] != 0
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // p
                for row in A + T:
                    row[j] -= q * row[t]
                dirty = dirty or A[t][j] != 0
        if dirty:
            continue  # remainders survived; pick a smaller pivot

        # divisibility fix: the pivot must divide the rest of the submatrix, as a
        # unit always does; otherwise add the first row it does not divide to row t
        stray = abs(p) > 1 and [i for i in range(t + 1, m) for a in A[i][t + 1:] if a % p]
        if stray:
            for M in (A, S):
                M[t] = [a + b for a, b in zip(M[t], M[stray[0]])]
            continue

        if p < 0:
            for M in (A, S):
                M[t] = [-a for a in M[t]]
        t += 1

    return A, S, T


def invariant_factors(mat):
    """The nonzero diagonal entries d_1 | d_2 | ... of mat's Smith normal form."""
    D, _, _ = smith_normal_form(mat)
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k) if D[i][i] != 0]
