"""Exact dense linear algebra over the integers.

Everything upstream reduces to integer matrix normal forms: Hermite forms
for spans and membership, Smith forms for invariant factors and finite
presentations, kernels for fixed points and norm kernels.  Matrices are
plain lists of rows of Python ints, so all arithmetic is arbitrary
precision by construction; no floating point appears anywhere.

Conventions:
  * The matrices are mostly zero, and the kernels skip zeros on both
    sides: ``mat_mul`` runs over the nonzero entries of a and, listed once
    per call, of each row of b, and every Hermite row operation runs over
    the nonzero entries of its pivot row only.
  * Each Hermite or Smith form is one elimination over one matrix.  A
    transform is an identity block appended to it, which takes every
    operation: a caller appends exactly the part it reads.
  * ``row_hnf(A) -> (H, T)`` with ``T @ A == H``, H in upper row-echelon
    Hermite form (positive pivots, entries above a pivot reduced into
    ``[0, pivot)``), T unimodular: it reduces [A | I].  ``row_echelon(A)``
    is the transform-free entry point, the nonzero rows of H.
  * ``col_hnf(A) -> (H, W)`` with ``A @ W == H``, the transposed picture
    (pivot rows strictly increasing column by column, zero columns last).
  * ``snf(A) -> (D, U, V)`` with ``U @ A @ V == D`` diagonal,
    ``d_1 | d_2 | ...``, all transforms unimodular: it reduces
    [[A, I], [I, 0]].
  * ``hnf_coordinates(A, R, bs)`` solves A x == b modulo span(R) for every
    b in bs, with a transform for A's columns only.
  * ``solve_exact(A, B)`` is ``factor_full_column_rank(A)`` followed by
    ``solve_factored(F, B)``: a caller that solves several right-hand sides
    against one A at different times factors A once and keeps F.
  * ``hnf_mod_prime_power(A, p, e) -> H``, no transform: the column HNF of
    span(A) + p^e . Z^m in the shape of ``hnf_cols``, computed modulo p^e.
  * ``smith_diagonal_mod_prime_power(A, p, e)``, no transform: the Smith
    diagonal of [A | p^e . I], computed modulo p^e.

Empty matrices are handled by the callers (which know their shapes);
helpers here assume non-degenerate input unless noted.
"""

from __future__ import annotations

from itertools import compress


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def identity(n):
    return _append_identity([[]] * n, 0)


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


def _nonzeros(row):
    """The nonzero (column, value) pairs of a row, in column order."""
    return list(compress(enumerate(row), row))


def mat_mul(a, b):
    """Product a @ b over the nonzero entries of both factors.

    Each row of b is listed once as its nonzero (column, value) pairs; a
    row of the result then accumulates x * y over the pairs of b[k], for
    every nonzero x = a[i][k].  Zeros cost nothing on either side, which
    matters because the lattice matrices upstream (actions, kernel bases,
    norms, transforms) are mostly zero.  Like ``zip``, a row of a longer
    than b stops at the last row of b.
    """
    width = len(b[0]) if b else 0
    pairs = [_nonzeros(brow) for brow in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, bk in zip(row, pairs):
            if x:
                for c, y in bk:
                    acc[c] += x * y
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_pow(a, k):
    """a^k for k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError(f"negative matrix power {k}")
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
    """a[i] -= q * a[k]."""
    a[i] = [x - q * y for x, y in zip(a[i], a[k])]


def _append_identity(rows, width):
    """[rows | I]: a copy of each row (of length ``width``) followed by the
    matching unit row, the transform block of an elimination."""
    pad = [0] * len(rows)
    out = [row + pad for row in rows]
    for i, row in enumerate(out):
        row[width + i] = 1
    return out


def _hermite(rows, width):
    """Reduce ``rows`` in place to the upper-echelon Hermite form of their
    first ``width`` columns, nonzero rows first; returns the rank.  Row
    operations span whole rows, so the columns past ``width`` carry the
    transform, but each one runs over the nonzero entries of its pivot row
    only: they are listed once per pass, and only for a pass that has a row
    to operate on."""
    m = len(rows)
    r = 0
    for c in range(width):
        if r == m:
            break
        # gcd loop: drive column c below row r to a single pivot at row r
        while True:
            nz = [i for i in range(r, m) if rows[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
            if len(nz) == 1:
                break
            piv = rows[r][c]
            pairs = _nonzeros(rows[r])
            clean = True
            for row in rows[r + 1 :]:
                if row[c]:
                    q = row[c] // piv
                    for j, y in pairs:
                        row[j] -= q * y
                    if row[c]:
                        clean = False
            if clean:
                break
        if rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            piv = rows[r][c]
            pairs = None
            for row in rows[:r]:
                q = row[c] // piv
                if q:
                    if pairs is None:
                        pairs = _nonzeros(rows[r])
                    for j, y in pairs:
                        row[j] -= q * y
            r += 1
    return r


def row_hnf(a):
    """Upper-echelon Hermite form by row operations: returns (H, T), T@a == H;
    one elimination of [a | I_m], whose identity block becomes T."""
    n = shape(a)[1]
    rows = _append_identity(a, n)
    _hermite(rows, n)
    t = []
    for row in rows:  # split in place, without a second copy of the block
        t.append(row[n:])
        del row[n:]
    return rows, t


def row_echelon(a):
    """The nonzero rows of the row Hermite form H of a; their number is the
    rank.  No transform is formed."""
    h = copy_mat(a)
    del h[_hermite(h, shape(a)[1]) :]
    return h


def col_hnf(a):
    """Column-echelon Hermite form: returns (H, W) with a @ W == H."""
    ht, t = row_hnf(transpose(a))
    return transpose(ht), transpose(t)


def hnf_cols(a):
    """Column HNF basis of the column span (zero columns dropped)."""
    h = row_echelon(transpose(a))
    return transpose(h) if h else [[] for _ in a]


def rank(a):
    return len(row_echelon(a))


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

    D is diagonal with nonnegative entries and d_i | d_{i+1}.  One
    elimination of [[a, I_m], [I_n, 0]] (the zero corner is not stored): row
    operations act on the first m rows and carry U, column operations act
    on the first n columns and carry V.
    """
    m, n = shape(a)
    d = _append_identity(a, n) + identity(n)

    def move_smallest_to_pivot(t):
        """Swap a nonzero entry of d[t:m, t:n] of least absolute value (the
        first one in row-major order) to (t, t); False if there is none."""
        best = None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                x = di[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:  # nothing smaller can follow
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            return False
        _, bi, bj = best
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
        if bj != t:
            for row in d:
                row[t], row[bj] = row[bj], row[t]
        return True

    t = 0
    while move_smallest_to_pivot(t):
        while True:
            # clear column t below the pivot
            for i in range(t + 1, m):
                if d[i][t]:
                    _row_sub(d, i, t, d[i][t] // d[t][t])
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for row in d:
                        row[j] -= q * row[t]
            dirty = any(d[i][t] for i in range(t + 1, m)) or any(
                d[t][j] for j in range(t + 1, n)
            )
            if not dirty:
                break
            # a smaller remainder appeared; move it to the pivot position
            move_smallest_to_pivot(t)
        # divisibility: pivot must divide every remaining entry (a unit does)
        piv = d[t][t]
        fixed = True
        for i in range(t + 1, m) if abs(piv) != 1 else ():
            row = d[i]
            for j in range(t + 1, n):
                if row[j] % piv:
                    # fold row i into row t and restart elimination at t
                    _row_sub(d, t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
            t += 1
            if t == m or t == n:
                break
    v = d[m:]
    del d[m:]
    u = []
    for row in d:  # split in place, as in row_hnf
        u.append(row[n:])
        del row[n:]
    return d, u, v


def snf_diagonal(a):
    """Invariant factors: the nonzero diagonal d_1 | d_2 | ... of the Smith form.

    Runs the full :func:`snf`, transforms included, and drops them; the
    package itself uses :func:`smith_diagonal_mod_prime_power`, and this
    stays as the oracle over Z.
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


def factor_full_column_rank(a):
    """Row Hermite factorization of an a with full column rank, for solving.

    Returns (n, T, pivots) with T @ a == H for the row HNF H: full column
    rank puts the pivot of row i in column i, for i < n, and the rows from
    n on are zero.  ``pivots[i]`` is (H[i][i], [(k, H[k][i]) for the rows
    k < i with H[k][i] != 0]), so back-substitution skips the zeros above
    each pivot; for a saturated basis (a kernel basis) H's top block is the
    identity and every such list is empty.  H itself is not kept.  Raises
    ValueError when a does not have full column rank.
    """
    m, n = shape(a)
    if n == 0:
        return 0, [], []
    h, t = row_hnf(a)  # t @ a = h, upper echelon
    if m < n or not all(h[i][i] for i in range(n)):
        raise ValueError("matrix does not have full column rank")
    pivots = [(h[i][i], [(k, h[k][i]) for k in range(i) if h[k][i]]) for i in range(n)]
    return n, t, pivots


def solve_factored(factor, b):
    """Solve a @ X = b for the a behind ``factor_full_column_rank(a)``.

    ``b`` is a matrix whose columns are solved independently.  Returns X with
    a @ X == b, or raises ValueError if some column has no integer solution.
    """
    n, t, pivots = factor
    if n == 0:
        if any(x for row in b for x in row):
            raise ValueError("inconsistent system with zero unknowns")
        return []
    tb = mat_mul(t, b)
    if any(any(row) for row in tb[n:]):
        raise ValueError("no integer solution (inconsistent rows)")
    res = tb[:n]
    x = [None] * n
    for i in reversed(range(n)):
        piv, above = pivots[i]
        if piv == 1:
            xi = res[i]
        else:
            xi = []
            for y in res[i]:
                q, r = divmod(y, piv)
                if r:
                    raise ValueError("no integer solution (divisibility fails)")
                xi.append(q)
        x[i] = xi
        for k, hk in above:
            res[k] = [y - hk * q for y, q in zip(res[k], xi)]
    return x


def solve_exact(a, b):
    """Solve a @ X = b exactly over the integers; a must have full column rank.

    ``b`` is a matrix whose columns are solved independently.  Returns X with
    a @ X == b, or raises ValueError if some column has no integer solution.
    One factorization of a, then :func:`solve_factored`.
    """
    return solve_factored(factor_full_column_rank(a), b)


def hnf_coordinates(a, rel, bs):
    """Solve a @ x == b modulo the column span of ``rel``, for every column b in ``bs``.

    One elimination of [a | rel]^T on its m columns, with a transform block
    for a's columns only, then each b is reduced against its pivots.  Returns
    one x per b, or None when b is outside span(a) + span(rel).  ``a`` may be
    rank deficient, and ``a`` or ``rel`` may have no columns.
    """
    n = shape(a)[1]
    m = len(a) or len(rel)
    rows = _append_identity(transpose(a), m) + [col + [0] * n for col in transpose(rel)]
    # echelon pivots in order: (pivot column, pivot, row from it, coefficients)
    pivots = []
    for row in rows[: _hermite(rows, m)]:
        i = next(k for k in range(m) if row[k])
        pivots.append((i, row[i], row[i:m], row[m:]))
    out = []
    for b in bs:
        res = b[:]
        x = [0] * n
        for i, piv, tail, coeffs in pivots:
            q, r = divmod(res[i], piv)
            if r:
                # pivot does not divide: b may still be reachable only if later
                # rows fix it, but echelon pivot columns are increasing, so no.
                x = None
                break
            if q:
                for k, y in enumerate(tail, i):
                    res[k] -= q * y
                x = [s + q * c for s, c in zip(x, coeffs)]
        out.append(None if x is None or any(res) else x)
    return out


def express_in_colspan(a, b):
    """One integer solution x of a @ x = b, or None if b is outside the span.

    ``a`` may be rank deficient; ``b`` is a single column (list).
    """
    return hnf_coordinates(a, [], [b])[0]


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


def _is_p_saturated_hnf(a, p):
    """Whether a already is the column HNF of a lattice of p-power index.

    True for square lower-triangular a with a p-power diagonal d_i > 0 and
    each row's entries left of the diagonal in [0, d_i): that is the unique
    column HNF of its span, and the index (the diagonal product) is a power
    of p, so the span is its own p-saturation.
    """
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n or any(row[i + 1 :]):
            return False
        d = row[i]
        if d <= 0 or any(not 0 <= x < d for x in row[:i]):
            return False
        while d % p == 0:
            d //= p
        if d != 1:
            return False
    return True


def hnf_mod_prime_power(cols, p, e):
    """Column HNF of span(cols) + p^e . Z^m, by elimination modulo p^e.

    The result follows :func:`hnf_cols`: square lower triangular, diagonal
    d_i a power of p dividing p^e, entries left of each d_i in [0, d_i).
    No transform is formed.  Z/p^e is a chain ring, so there is no gcd
    loop: each column pivots on a generator of least p-valuation v, scaled
    by the inverse of its unit part, and one multiple of it clears every
    other generator; the pivot times p^(e-v), whose entry in that column
    vanishes mod p^e, joins the generators of the later columns.  A column
    left without generators gets the pivot p^e ("HNF modulo D":
    Domich-Kannan-Trotter 1987; Cohen, GTM 138, Alg. 2.4.8).
    """
    m = len(cols)
    q = p**e
    gens = [g for g in ([x % q for x in col] for col in zip(*cols)) if any(g)]
    rows = []
    for c in range(m):
        best = None
        for g in gens:
            x = g[c]
            if x:
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                if best is None or v < best[0]:
                    best = (v, g)
                    if v == 0:
                        break
        if best is None:
            row = [0] * m
            row[c] = q
            rows.append(row)
            continue
        v, g0 = best
        pv = p**v
        inv = pow(g0[c] // pv, -1, q)
        tail = [x * inv % q for x in g0[c + 1 :]]
        rest = []
        for g in gens:
            if g is g0:
                continue
            f = g[c] // pv
            if f:
                g = [0] * (c + 1) + [(x - f * y) % q for x, y in zip(g[c + 1 :], tail)]
                if not any(g):
                    continue
            rest.append(g)
        if v:
            shifted = [x * p ** (e - v) % q for x in tail]
            if any(shifted):
                rest.append([0] * (c + 1) + shifted)
        gens = rest
        rows.append([0] * c + [pv] + tail)
    # reduce each entry above a pivot into [0, pivot), column by column
    for c, pivot_row in enumerate(rows):
        d = pivot_row[c]
        tail = pivot_row[c + 1 :]
        for row in rows[:c]:
            f = row[c] // d
            if f:
                row[c] -= f * d
                row[c + 1 :] = [(x - f * y) % q for x, y in zip(row[c + 1 :], tail)]
    return transpose(rows)


def smith_diagonal_mod_prime_power(cols, p, e):
    """Smith diagonal of [cols | p^e . I], by elimination modulo p^e.

    Returns all m invariant factors d_1 | ... | d_m, each a power of p
    dividing p^e, and forms no transform.  Over the chain ring Z/p^e an
    entry of least p-valuation v divides every other entry, so a column
    holding one, scaled by the inverse of its unit part, clears that row in
    every other column with one multiple each; its own column then clears
    by row operations that touch nothing else, and only p^v is kept.  The
    valuations come out nondecreasing, and the rows never pivoted give p^e.
    """
    m = len(cols)
    q = p**e
    gens = [g for g in ([x % q for x in col] for col in zip(*cols)) if any(g)]
    divs = []
    while gens:
        best = None
        for g in gens:
            for r, x in enumerate(g):
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, g, r)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        v, g0, r = best
        pv = p**v
        inv = pow(g0[r] // pv, -1, q)
        pivot_col = [x * inv % q for x in g0]
        rest = []
        for g in gens:
            if g is g0:
                continue
            f = g[r] // pv
            if f:
                g = [(x - f * y) % q for x, y in zip(g, pivot_col)]
                if not any(g):
                    continue
            rest.append(g)
        gens = rest
        divs.append(pv)
    return divs + [q] * (m - len(divs))


def hnf_p_saturated(cols, p):
    """Column HNF of the prime-to-p saturation of the integer column span.

    The returned basis spans the smallest integer lattice containing the
    input span with quotient of p-power order; equivalently, the input span
    after localization at p, with each elementary divisor replaced by its
    p-part.  Zero columns are dropped.  An input that already is that
    basis is returned as a copy without any normal form.  A caller that
    knows a power p^e killing the quotient gets the same basis from
    :func:`hnf_mod_prime_power`, without a Smith form or transforms.  Its one
    caller in the package is ``FiniteGammaModule.__init__``, and every
    module the package builds arrives as that basis already, so the Smith
    path serves only relations handed to the public constructor.
    """
    m, n = shape(cols)
    if n == 0 or m == 0:
        return [[] for _ in range(m)]
    if _is_p_saturated_hnf(cols, p):
        return copy_mat(cols)
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
