"""Polynomial oracles for the tests: sparse multivariate polynomials over
the integers, for the symbolic checks of small discriminants, Lagrange
interpolation and Horner evaluation, for checking line restrictions against
pointwise values, ``det_exact`` and ``rank_exact`` by a fraction-free
Bareiss elimination over Q, the oracle for the multimodular determinants
of ``arith``, a linear solve through the F_p LU factors
(``_lu_solve``, the oracle for the pencil operator of
``arith._compile_operator``), the exhaustive Markowitz search as the
oracle for the restricted one, ``degree_of``, the degree of a handle read
off one scaled value, as the oracle for the degree formula and the degrees
read off the pencils, and ``verify_weight``, a handle's weight checked
under the group action, as the oracle for the weight formula -eE.

The last section holds helpers that only the tests use: extensions and
direct sums, the zero representation, the pencil of a handle from the
dense defect matrices (``dense_pencil``, the oracle for
``SchofieldHandle.pencil``), the discriminant's value at one
representation, the root of a weight, and the dense characteristic
polynomial (``charpoly_mod``, the dense entry into
``arith._charpoly_op``).

A multivariate polynomial is a dict from exponent tuples to nonzero int
coefficients.  ``mpoly_matrix`` turns the linear-form entries of an action
matrix into such polynomials, so that ``mp_det`` expands its determinant
symbolically.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from qlfd.arith import (
    Rng,
    _charpoly_op,
    _factor_mod,
    det,
    det_pencil_poly,
    poly_deriv,
    poly_trim,
    power,
    reduce,
)
from qlfd.quiver import Quiver, euler_inverse
from qlfd.repmatrix import (
    Representation,
    _check_pair,
    _zeros,
    action_matrix,
    defect_matrix,
    random_representation,
)
from qlfd.semiinv import DegenerateWitnessError, _row_times_matrix


def mp_zero():
    return {}


def mp_const(c: int, nvars: int):
    return {} if c == 0 else {(0,) * nvars: c}


def mp_var(i: int, nvars: int):
    exp = [0] * nvars
    exp[i] = 1
    return {tuple(exp): 1}


def mp_add(f, g):
    out = dict(f)
    for mono, c in g.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def mp_neg(f):
    return {m: -c for m, c in f.items()}


def mp_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def mp_equal_up_to_sign(f, g) -> bool:
    return f == g or f == mp_neg(g)


def mp_det(mat, nvars: int):
    """Determinant of a matrix of multivariate polynomials.

    Laplace expansion along the first remaining column, memoized on the row
    subset; intended for the small exact fixtures only.
    """
    n = len(mat)
    memo = {}

    def minor(rows):
        if not rows:
            return mp_const(1, nvars)
        if rows in memo:
            return memo[rows]
        col = n - len(rows)
        acc = mp_zero()
        for pos, r in enumerate(rows):
            cell = mat[r][col]
            if not cell:
                continue
            sub = minor(rows[:pos] + rows[pos + 1:])
            term = mp_mul(cell, sub)
            acc = mp_add(acc, term if pos % 2 == 0 else mp_neg(term))
        memo[rows] = acc
        return acc

    return minor(tuple(range(n)))


def mpoly_matrix(lfm):
    """The entries of a ``LinearFormMatrix`` as linear polynomials in its
    ``coords.total`` coordinates."""
    n = lfm.coords.total
    m = [[mp_zero() for _ in range(lfm.size)] for _ in range(lfm.size)]
    for (r, c), terms in lfm.cells.items():
        acc = mp_zero()
        for k, sign in terms:
            for mono, coef in mp_var(k, n).items():
                acc[mono] = acc.get(mono, 0) + sign * coef
        m[r][c] = {k: v for k, v in acc.items() if v}
    return m


def poly_eval(f, t, p=None):
    acc = 0
    for c in reversed(f):
        acc = acc * t + c
        if p is not None:
            acc %= p
    return acc


def _lu_solve(lu, w, p: int):
    """A^{-1} w over F_p for the factors ``lu`` of ``_factor_mod``.

    The forward pass replays the row operations on w, one gathered dot
    product per pivot row; the backward pass solves the pivot rows in
    reverse, one gathered dot product per column.
    """
    forward, backward = lu
    y = []
    get = y.__getitem__
    for r, steps, fs in forward:
        y.append((w[r] - sum(map(mul, fs, map(get, steps)))) % p)
    x = [0] * len(y)
    get = x.__getitem__
    for yk, (c, inv, cols, vals) in zip(reversed(y), backward):
        x[c] = (yk - sum(map(mul, vals, map(get, cols)))) * inv % p
    return x


def _solve_mod(a, p: int, b=None):
    """(rank A, det A, A^{-1} B) over F_p, B's columns solved through the
    LU factors of ``_factor_mod``; the solution is None unless A is square
    and invertible and B is given."""
    rank, det, lu = _factor_mod(a, p, b is not None)
    if lu is None:
        return rank, det, None
    x = [[] for _ in a]
    for col in zip(*b):
        for row, v in zip(x, _lu_solve(lu, col, p)):
            row.append(v)
    return rank, det, x


def search_all_rows(a, p: int, lower: bool):
    """``arith._search_mod`` with the exhaustive Markowitz search: each
    pivot is the entry of least cost (r - 1)(c - 1) over every active row
    (Markowitz 1957), not only the shortest few.  The oracle for the
    restricted search, which must give the same rank, determinant and
    solves; monkeypatch it in as ``arith._search_mod``.
    """
    n = len(a[0]) if a else 0
    rows = [{j: v for j, x in enumerate(row) if (v := x % p)} for row in a]
    cols = [set() for _ in range(n)]  # active rows with a nonzero in each column
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def col_count(j):
        return len(cols[j])

    active = {i for i, row in enumerate(rows) if row}
    pivots = []
    det = 1
    if lower:
        lrows = [([], []) for _ in a]  # (earlier steps, multipliers) per row
        forward, backward = [], []
    while active:
        best = None
        for i in active:
            row = rows[i]
            j = min(row, key=col_count)
            cost = (len(row) - 1) * (len(cols[j]) - 1)
            if best is None or cost < best[0]:
                best = (cost, i, j)
                if not cost:
                    break
        _, r, c = best
        prow = rows[r]
        active.discard(r)
        for j in prow:
            cols[j].discard(r)
        pv = prow.pop(c)  # the pivot row keeps only its off-pivot entries
        inv = pow(pv, -1, p)
        det = det * pv % p
        step = len(pivots)
        pivots.append((r, c))
        if lower:
            forward.append((r, *lrows[r]))
            backward.append((c, inv, tuple(prow), tuple(prow.values())))
        for i in list(cols[c]):
            row = rows[i]
            f = row.pop(c) * inv % p
            cols[c].discard(i)
            if lower:
                lrows[i][0].append(step)
                lrows[i][1].append(f)
            for j, y in prow.items():
                x = (row.get(j, 0) - f * y) % p
                if x:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = x
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                active.discard(i)
    return det, pivots, (forward, backward[::-1]) if lower else None


def interpolate(points, p=None):
    """Lagrange interpolation through (t, f(t)) pairs.

    Over F_p when ``p`` is given, otherwise exact over Fractions.  Raises on
    duplicate abscissae.  With P(t) = prod_j (t - t_j), built once, the
    basis polynomial of node i is P(t) / ((t - t_i) P'(t_i)): one synthetic
    division and one value of P' per node, O(k^2) for k points.
    """
    ts = [t for t, _ in points]
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate abscissa in interpolation data")
    full = [1]  # P
    for t in ts:
        full = [b - t * a for a, b in zip(full + [0], [0] + full)]
        if p is not None:
            full = [x % p for x in full]
    deriv = poly_deriv(full, p)
    acc = [0] * len(points)
    for t, y in points:
        if y == 0:
            continue
        quot = [0] * len(points)  # P / (t - t_i), by synthetic division
        carry = 0
        for j in range(len(points), 0, -1):
            carry = full[j] + t * carry
            if p is not None:
                carry %= p
            quot[j - 1] = carry
        denom = poly_eval(deriv, t, p)
        c = y * pow(denom, -1, p) % p if p is not None else Fraction(y) / denom
        acc = [a + c * b for a, b in zip(acc, quot)]
    if p is not None:
        acc = [x % p for x in acc]
    return poly_trim(acc)


# ---------------------------------------------------------------------------
# Exact rank and determinant by fraction-free elimination


def det_exact(mat):
    """Exact determinant for int/Fraction entries, by ``_bareiss``."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(mat)[1]


def rank_exact(mat) -> int:
    """Exact rank for int/Fraction entries, by ``_bareiss``."""
    return _bareiss(mat)[0]


def _clear_denominators(xs):
    """(m, [m*x for x in xs]) with m the lcm of the denominators of the
    int/Fraction values xs, the products as ints."""
    mult = 1
    for x in xs:
        mult = lcm(mult, x.denominator)
    return mult, [x.numerator * (mult // x.denominator) for x in xs]


def _bareiss(mat):
    """(rank, det) of an int/Fraction matrix by one fraction-free pass.

    Rows are scaled to integers, then a fraction-free Bareiss (1968)
    elimination runs entirely in int arithmetic, skipping the columns
    without a pivot; the determinant is the last pivot with the sign of the
    row swaps and the tracked scale divided out, and 0 unless the matrix is
    square of full rank.
    """
    a = []
    scale = 1
    for row in mat:
        mult, ints = _clear_denominators(row)
        scale *= mult
        a.append(ints)
    m = len(a)
    n = len(a[0]) if a else 0
    sign = 1
    prev = 1
    rank = 0
    for c in range(n):
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        rowk = a[rank]
        pk = rowk[c]
        for i in range(rank + 1, m):
            rowi = a[i]
            f = rowi[c]
            for j in range(c + 1, n):
                rowi[j] = (rowi[j] * pk - f * rowk[j]) // prev
            rowi[c] = 0
        prev = pk
        rank += 1
    return rank, Fraction(sign * prev, scale) if rank == m == n else Fraction(0)


# ---------------------------------------------------------------------------
# Scalars, the group action and the weight of a handle


def random_scalar(rng: Rng, p: int | None) -> int:
    """A random scalar outside {0, 1, -1}: uniform on [2, p - 2] over F_p,
    on [2, 19] over Q."""
    return rng.randint(2, 19) if p is None else 2 + rng.below(p - 3)


def scale_first_coordinates(v: Representation, lams) -> Representation:
    """g.V for the group element g that is diag(lam_x, 1, ..., 1) at each
    node index x of the dict ``lams`` and the identity elsewhere:
    V(a) -> g_head V(a) g_tail^{-1}."""
    p = v.modulus
    invs = {x: power(lam, -1, p) for x, lam in lams.items()}
    out = Representation(v.quiver, v.dims, p, v.mats)  # copies the matrices
    for m, h, t in zip(out.mats, v.quiver.heads, v.quiver.tails):
        if h in lams and m:
            lam = lams[h]
            m[0] = [reduce(x * lam, p) for x in m[0]]
        if t in invs:
            inv = invs[t]
            for row in m:
                if row:
                    row[0] = reduce(row[0] * inv, p)
    return out


def verify_weight(handle, declared, v: Representation, value, seed: int) -> bool:
    """Check the declared weight at V, where the handle takes ``value``,
    with one evaluation, over V's field: acting by diag(lam_x, 1, ..., 1) at
    every support node x at once must scale the value by
    prod_x lam_x**w(x).  A weight off by delta_x != 0 at x passes only if
    lam_x**delta_x hits one value, with probability at most
    |delta_x|/(p - 3) over lam_x (Schwartz-Zippel); over Q, lam_x in
    [2, 19], at most 1/18."""
    q, d, p = handle.quiver, handle.dims, v.modulus
    rng = Rng(seed)
    expect = value
    lams = {}
    for x in range(q.node_count):
        if d[x]:
            lams[x] = lam = random_scalar(rng.split(1, x), p)
            expect = reduce(expect * power(lam, declared[x], p), p)
    return handle.evaluate(scale_first_coordinates(v, lams)) == expect


# ---------------------------------------------------------------------------
# The degree of a handle from one scaled value


def _scaled_representation(v: Representation, lam) -> Representation:
    mats = [[[reduce(x * lam, v.modulus) for x in row] for row in m] for m in v.mats]
    return Representation(v.quiver, v.dims, v.modulus, mats)


def degree_of(handle, prime: int | None, seed: int, retries: int = 4) -> int:
    """Total degree of the handle's polynomial f, read off one scaled value.

    f is homogeneous (Schofield 1991), so f(lam V) = lam**k f(V) with k its
    degree.  At a random V with f(V) != 0 and a random scalar lam whose
    powers lam**0, ..., lam**degree_bound are distinct, k is the unique
    exponent up to the bound that matches; a value that matches none means
    f is not homogeneous.  With ``prime`` None the check runs over Q.
    """
    bound = handle.degree_bound
    if prime is not None and prime <= 2 * max(bound, 1):
        raise ValueError("prime too small for the degree check")
    rng = Rng(seed)
    for attempt in range(retries):
        v1 = random_representation(
            handle.quiver, handle.dims, prime, rng.split(attempt).seed
        )
        base = handle.evaluate(v1)
        if base == 0:
            continue
        lam = random_scalar(rng.split(attempt, 1), prime)
        powers = [power(lam, k, prime) for k in range(bound + 1)]
        if len(set(powers)) <= bound:
            continue  # lam has order at most the bound in F_p^*
        scaled = handle.evaluate(_scaled_representation(v1, lam))
        for k, lam_k in enumerate(powers):
            if scaled == reduce(base * lam_k, prime):
                handle.degree = k
                return k
        raise AssertionError("restriction of a homogeneous handle is not a monomial")
    raise DegenerateWitnessError("handle evaluates to zero along every sampled ray")


# ---------------------------------------------------------------------------
# Helpers no stage calls


def apply_defect(w: Representation, v: Representation, psi):
    """Image of a node-wise map tuple under the defect map: one
    d(head) x e(tail) matrix per arrow."""
    _check_pair(w, v)
    q = w.quiver
    e, d = w.dims, v.dims
    out = []
    for a in range(q.arrow_count):
        t, h = q.tails[a], q.heads[a]
        wa, va = w.mats[a], v.mats[a]
        block = _zeros(d[h], e[t])
        for r in range(d[h]):
            for s in range(e[t]):
                acc = 0
                for j in range(e[h]):
                    acc += psi[h][r][j] * wa[j][s]
                for i in range(d[t]):
                    acc -= va[r][i] * psi[t][i][s]
                block[r][s] = reduce(acc, w.modulus)
        out.append(block)
    return out


def extension_middle_term(v: Representation, w: Representation, theta) -> Representation:
    """Representation on V_x + W_x with arrow blocks [[V(a), theta_a], [0, W(a)]].

    ``theta`` holds one d(head) x e(tail) matrix per arrow, indexed like the
    rows of the defect matrix; theta = 0 yields the direct sum, and theta in
    the image of the defect map yields a split extension.
    """
    _check_pair(w, v)
    q = v.quiver
    d, e = v.dims, w.dims
    dims = tuple(a + b for a, b in zip(d, e))
    mats = []
    for a in range(q.arrow_count):
        t, h = q.tails[a], q.heads[a]
        th = theta[a]
        if len(th) != d[h] or any(len(r) != e[t] for r in th):
            raise ValueError(f"theta block for arrow {q.arrows[a].name!r} has wrong shape")
        block = _zeros(dims[h], dims[t])
        for r in range(d[h]):
            for c in range(d[t]):
                block[r][c] = v.mats[a][r][c]
            for c in range(e[t]):
                block[r][d[t] + c] = th[r][c]
        for r in range(e[h]):
            for c in range(e[t]):
                block[d[h] + r][d[t] + c] = w.mats[a][r][c]
        mats.append(block)
    return Representation(q, dims, v.modulus, mats)


def direct_sum(v: Representation, w: Representation) -> Representation:
    q = v.quiver
    theta = [_zeros(v.dims[q.heads[a]], w.dims[q.tails[a]]) for a in range(q.arrow_count)]
    return extension_middle_term(v, w, theta)


def zero_representation(q: Quiver, e, p: int | None) -> Representation:
    return Representation(q, e, p, [_zeros(e[h], e[t]) for t, h in zip(q.tails, q.heads)])


def dense_pencil(w: Representation, v0: Representation, v1: Representation):
    """det(M(0, V0) + t M(W, V1)) from the dense defect matrices, M(0, V0)
    that of the zero representation of W's dimension vector."""
    m0 = defect_matrix(zero_representation(w.quiver, w.dims, w.modulus), v0)
    return det_pencil_poly(m0, defect_matrix(w, v1), w.modulus)


def discriminant_value(q: Quiver, d, v: Representation, drop_node: str | None = None):
    """Value of the discriminant's equation at V (up to the fixed scalar
    determined by the dropped direction)."""
    if v.quiver != q or v.dims != tuple(d):
        raise ValueError("representation does not live in this space")
    lfm = action_matrix(q, d, drop_node)
    return det(lfm.evaluate(lfm.coords.flatten(v), v.modulus), v.modulus)


def root_from_weight(q: Quiver, w) -> tuple[int, ...]:
    """Recover the orthogonal root from a weight: -w E^{-1}; inverse of
    weight_of_schofield.  Errors when the result has a negative entry."""
    w = tuple(int(x) for x in w)
    e = _row_times_matrix(tuple(-x for x in w), euler_inverse(q))
    if any(x < 0 for x in e):
        raise ValueError(f"weight {w} does not come from a dimension vector (got {e})")
    return e


def charpoly_mod(mat, p: int):
    """Coefficients of det(t*I - A) over F_p for a dense matrix A, by the
    Hessenberg reduction of ``arith._charpoly_op``."""
    return _charpoly_op(lambda u: [sum(map(mul, row, u)) for row in mat], len(mat), p)
