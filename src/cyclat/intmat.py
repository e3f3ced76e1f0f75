"""Exact dense linear algebra over the integers.

Everything upstream reduces to integer matrix normal forms: Hermite forms
for spans and membership, Smith forms for invariant factors and finite
presentations, kernels for fixed points and norm kernels.  Matrices are
plain lists of rows of Python ints, so all arithmetic is arbitrary
precision by construction; no floating point appears anywhere.

Conventions:
  * ``row_hnf(A) -> (H, T)`` with ``T @ A == H``, H in upper row-echelon
    Hermite form (positive pivots, entries above a pivot reduced into
    ``[0, pivot)``), T unimodular.
  * ``col_hnf(A) -> (H, W)`` with ``A @ W == H``, the transposed picture
    (pivot rows strictly increasing column by column, zero columns last).
  * ``snf(A) -> (D, U, V)`` with ``U @ A @ V == D`` diagonal,
    ``d_1 | d_2 | ...``, all transforms unimodular.

Empty matrices are handled by the callers (which know their shapes);
helpers here assume non-degenerate input unless noted.
"""

from __future__ import annotations


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def copy_mat(a):
    return [row[:] for row in a]


def transpose(a):
    return [list(row) for row in zip(*a)] if a else []


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    """Product a @ b, accumulated row by row over the nonzero entries of a.

    Each row of the result is the sum of x * b[k] over the nonzero entries
    x = a[i][k]; zeros cost nothing, which matters because the lattice
    matrices upstream (actions, kernel bases, norms) are mostly zero.
    """
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x:
                if x == 1:
                    acc = [s + y for s, y in zip(acc, brow)]
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_pow(a, k):
    n = len(a)
    result = identity(n)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def mat_mod(a, m):
    return [[x % m for x in row] for row in a]


def is_zero_mat(a):
    return all(x == 0 for row in a for x in row)


def is_identity(a):
    n = len(a)
    return all(a[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def _row_sub(a, i, k, q):
    """a[i] -= q * a[k], in place."""
    ai, ak = a[i], a[k]
    for j in range(len(ai)):
        ai[j] -= q * ak[j]


def row_hnf(a):
    """Upper-echelon Hermite form by row operations: returns (H, T), T@a == H."""
    m, n = shape(a)
    h = copy_mat(a)
    t = identity(m)
    r = 0
    for c in range(n):
        if r == m:
            break
        # gcd loop: drive column c below row r to a single pivot at row r
        while True:
            nz = [i for i in range(r, m) if h[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                t[r], t[i0] = t[i0], t[r]
            clean = True
            piv = h[r][c]
            for i in range(r + 1, m):
                if h[i][c]:
                    q = h[i][c] // piv
                    _row_sub(h, i, r, q)
                    _row_sub(t, i, r, q)
                    if h[i][c]:
                        clean = False
            if clean:
                break
        if r < m and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                t[r] = [-x for x in t[r]]
            piv = h[r][c]
            for i in range(r):
                q = h[i][c] // piv
                if q:
                    _row_sub(h, i, r, q)
                    _row_sub(t, i, r, q)
            r += 1
    return h, t


def col_hnf(a):
    """Column-echelon Hermite form: returns (H, W) with a @ W == H."""
    ht, t = row_hnf(transpose(a))
    return transpose(ht), transpose(t)


def nonzero_cols(a):
    """Indices of columns of ``a`` that contain a nonzero entry."""
    m, n = shape(a)
    return [j for j in range(n) if any(a[i][j] for i in range(m))]


def hnf_cols(a):
    """Column HNF basis of the column span (zero columns dropped)."""
    h, _ = col_hnf(a)
    keep = nonzero_cols(h)
    return [[row[j] for j in keep] for row in h]


def rank(a):
    if not a or not a[0]:
        return 0
    h, _ = row_hnf(a)
    return sum(1 for row in h if any(row))


def kernel(a, ncols=None):
    """Basis (as columns) of the integer right kernel {v : a v = 0}.

    The basis spans the full kernel lattice (it is automatically saturated).
    ``ncols`` must be given when ``a`` has no rows.
    """
    m, n = shape(a)
    if m == 0:
        if ncols is None:
            raise ValueError("kernel of empty matrix needs ncols")
        return identity(ncols)
    h, t = row_hnf(transpose(a))  # t @ a^T = h
    rk = sum(1 for row in h if any(row))
    ker_rows = t[rk:]
    return transpose(ker_rows) if ker_rows else [[] for _ in range(n)]


def snf(a):
    """Smith normal form with transforms: (D, U, V), U@a@V == D.

    D is diagonal with nonnegative entries and d_i | d_{i+1}.
    """
    m, n = shape(a)
    d = copy_mat(a)
    u = identity(m)
    v = identity(n)

    def col_sub(mat, j, k, q):
        for row in mat:
            row[j] -= q * row[k]

    def swap_cols(mat, j, k):
        for row in mat:
            row[j], row[k] = row[k], row[j]

    def move_smallest_to_pivot(t):
        """Swap a nonzero entry of d[t:, t:] of least absolute value (the
        first one in row-major order) to (t, t); False if there is none."""
        best = None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                x = di[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            return False
        _, bi, bj = best
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            swap_cols(d, t, bj)
            swap_cols(v, t, bj)
        return True

    t = 0
    while move_smallest_to_pivot(t):
        while True:
            # clear column t below the pivot
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    _row_sub(d, i, t, q)
                    _row_sub(u, i, t, q)
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_sub(d, j, t, q)
                    col_sub(v, j, t, q)
            dirty = any(d[i][t] for i in range(t + 1, m)) or any(
                d[t][j] for j in range(t + 1, n)
            )
            if not dirty:
                break
            # a smaller remainder appeared; move it to the pivot position
            move_smallest_to_pivot(t)
        # divisibility: pivot must divide every remaining entry
        piv = d[t][t]
        fixed = True
        for i in range(t + 1, m):
            row = d[i]
            for j in range(t + 1, n):
                if row[j] % piv:
                    # fold row i into row t and restart elimination at t
                    _row_sub(d, t, i, -1)
                    _row_sub(u, t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            t += 1
            if t == m or t == n:
                break
    return d, u, v


def snf_diagonal(a):
    """Invariant factors: the nonzero diagonal d_1 | d_2 | ... of the Smith form.

    Runs the full :func:`snf`, transforms included, and drops them.
    """
    d, _, _ = snf(a)
    m, n = shape(d)
    return [d[i][i] for i in range(min(m, n)) if d[i][i]]


def unimodular_inverse(u):
    """Exact inverse of a unimodular integer matrix."""
    h, t = row_hnf(u)
    if not is_identity(h):
        raise ValueError("matrix is not unimodular")
    return t


def solve_exact(a, b):
    """Solve a @ X = b exactly over the integers; a must have full column rank.

    ``b`` is a matrix whose columns are solved independently.  Returns X with
    a @ X == b, or raises ValueError if some column has no integer solution.
    """
    m, n = shape(a)
    ncols_b = len(b[0]) if b else 0
    if n == 0:
        if any(x for row in b for x in row):
            raise ValueError("inconsistent system with zero unknowns")
        return []
    h, t = row_hnf(a)  # t @ a = h, upper echelon
    tb = mat_mul(t, b)
    # full column rank: exactly n pivot rows, one pivot per column
    pivots = []
    for i in range(m):
        j = next((c for c in range(n) if h[i][c]), None)
        if j is None:
            break
        pivots.append((i, j))
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    for i in range(n, m):
        if any(tb[i]):
            raise ValueError("no integer solution (inconsistent rows)")
    x = zeros(n, ncols_b)
    for col in range(ncols_b):
        res = [tb[i][col] for i in range(n)]
        for i in reversed(range(n)):
            _, jpiv = pivots[i]
            q, r = divmod(res[i], h[i][jpiv])
            if r:
                raise ValueError("no integer solution (divisibility fails)")
            x[i][col] = q
            if q:
                for k in range(i):
                    res[k] -= q * h[k][jpiv]
    return x


def express_in_colspan(a, b):
    """One integer solution x of a @ x = b, or None if b is outside the span.

    ``a`` may be rank deficient; ``b`` is a single column (list).
    """
    m, n = shape(a)
    if n == 0:
        return [] if all(v == 0 for v in b) else None
    h, w = col_hnf(a)  # a @ w = h
    # reduce b against the echelon columns of h
    coeff = [0] * n
    res = b[:]
    col_pivot_row = []
    for j in range(n):
        i = next((r for r in range(m) if h[r][j]), None)
        col_pivot_row.append(i)
    for j in range(n):
        i = col_pivot_row[j]
        if i is None:
            continue
        q, r = divmod(res[i], h[i][j])
        if r:
            # pivot does not divide: b may still be reachable only if later
            # columns fix it, but echelon pivot rows are increasing, so no.
            return None
        if q:
            coeff[j] = q
            for k in range(m):
                res[k] -= q * h[k][j]
    if any(res):
        return None
    return mat_vec(w, coeff)


def in_colspan(a, b):
    return express_in_colspan(a, b) is not None


def det_mod(a, m):
    """Determinant of a modulo a prime m (Gaussian elimination over F_m)."""
    n = len(a)
    w = [[x % m for x in row] for row in a]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if w[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            w[c], w[piv] = w[piv], w[c]
            det = -det
        det = (det * w[c][c]) % m
        inv = pow(w[c][c], -1, m)
        for i in range(c + 1, n):
            if w[i][c]:
                f = (w[i][c] * inv) % m
                w[i] = [(x - f * y) % m for x, y in zip(w[i], w[c])]
    return det % m


def pivot_columns_mod_p(a, p):
    """Indices of the columns of a outside the F_p-span of the columns before them.

    Gaussian elimination over F_p (p prime), one column at a time; the
    number of indices is the rank of a mod p.
    """
    w = [[x % p for x in row] for row in a]
    m, n = shape(w)
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if w[i][c]), None)
        if piv is None:
            continue
        w[r], w[piv] = w[piv], w[r]
        inv = pow(w[r][c], -1, p)
        for i in range(r + 1, m):
            if w[i][c]:
                f = (w[i][c] * inv) % p
                w[i] = [(x - f * y) % p for x, y in zip(w[i], w[r])]
        pivots.append(c)
    return pivots


def p_valuation(x, p):
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        v += 1
    return v


def p_part(x, p):
    return p ** p_valuation(x, p)


def hnf_p_saturated(cols, p):
    """Column HNF of the prime-to-p saturation of the integer column span.

    The returned basis spans the smallest integer lattice containing the
    input span with quotient of p-power order; equivalently, the input span
    after localization at p, with each elementary divisor replaced by its
    p-part.  Zero columns are dropped.
    """
    m, n = shape(cols)
    if n == 0 or m == 0:
        return [[] for _ in range(m)]
    d, u, v = snf(cols)
    uinv = unimodular_inverse(u)
    r = sum(1 for i in range(min(m, n)) if d[i][i])
    if r == 0:
        return [[] for _ in range(m)]
    basis = [[uinv[i][j] * p_part(d[j][j], p) for j in range(r)] for i in range(m)]
    return hnf_cols(basis)


def block_diag(blocks):
    """Block-diagonal matrix from a list of (possibly empty or rectangular) blocks."""
    shapes = [shape(b) for b in blocks]
    out = zeros(sum(r for r, _ in shapes), sum(c for _, c in shapes))
    r0 = c0 = 0
    for b, (r, c) in zip(blocks, shapes):
        for i in range(r):
            out[r0 + i][c0 : c0 + c] = b[i]
        r0 += r
        c0 += c
    return out


def hstack(a, b):
    """Concatenate two matrices with equal row counts side by side."""
    if not a:
        return copy_mat(b)
    if not b:
        return copy_mat(a)
    return [ra + rb for ra, rb in zip(a, b)]


def vstack(a, b):
    return copy_mat(a) + copy_mat(b)
