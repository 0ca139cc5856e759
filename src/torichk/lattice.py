"""Exact integer lattice algebra.

Smith normal form over Z with the two unimodular transforms, and the
invariant factors the classification reads from it: the active normals of a
stratum extend to a Z-basis exactly when their invariant factors are all 1
and there are as many as normals.  Everything here works on Python ints, so
there is no overflow and no floating-point tolerance anywhere.
"""


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (D, S, T) with D = S @ mat @ T, S and T unimodular.

    D is diagonal with d_1 | d_2 | ... | d_r, d_i >= 0.  With r the number
    of nonzero d_i, the rows of S past the first r are a Z-basis of the
    integer left kernel {y : y @ mat = 0}.
    """
    A = [[int(x) for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    S = _identity(m)
    T = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in T:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]

    def add_col(src, dst, q):
        # col_dst += q * col_src
        for row in A:
            row[dst] += q * row[src]
        for row in T:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        S[i] = [-a for a in S[i]]

    t = 0
    while t < min(m, n):
        # locate the smallest nonzero entry in the trailing submatrix
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = -(A[i][t] // A[t][t])
                add_row(t, i, q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = -(A[t][j] // A[t][t])
                add_col(t, j, q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders survived; pick a smaller pivot

        # divisibility fix: the pivot must divide the rest of the submatrix
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(stray, t, 1)
            continue

        if A[t][t] < 0:
            negate_row(t)
        t += 1

    return A, S, T


def invariant_factors(mat):
    D, _, _ = smith_normal_form(mat)
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k) if D[i][i] != 0]
