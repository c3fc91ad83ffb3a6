"""Arithmetic substrate: prime fields, seeded randomness, exact and modular
linear algebra, and univariate polynomials.

Conventions used throughout the package:

* a matrix is a list of row lists; the 0x0 matrix is ``[]`` and has
  determinant 1 and rank 0;
* over a prime field of modulus ``p`` entries are ints in ``[0, p)``;
  exact matrices hold ints or :class:`fractions.Fraction`;
* a univariate polynomial is a coefficient list, constant term first,
  with trailing zeros trimmed (the zero polynomial is ``[]``);
* a field argument ``p`` is a prime for F_p or None for Q; ``det``,
  ``rank``, ``reduce``, ``power`` and ``random_scalar`` make that choice
  once, so that callers keep one code path for both fields.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from math import gcd, lcm
from operator import mul

# 2**62 - 57, the default modulus for all randomized checks.  62 bits keeps
# single Schwartz-Zippel error bounds below 2**-40 for every fixture degree
# occurring here while products still fit comfortably in native big ints.
DEFAULT_PRIME = 4611686018427387847

_MASK64 = (1 << 64) - 1

# Witnesses making Miller-Rabin deterministic below _MR_BOUND (about
# 3.3 * 10**24, between 2**81 and 2**82).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981
    (about 3.3 * 10**24); above that a composite may pass."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """A prime field F_p; primality of the modulus is checked on construction,
    so the modulus must lie in the range where ``is_prime`` is exact."""

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise ValueError(
                f"modulus {p} is too large: primality is proven only below {_MR_BOUND}"
            )
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class Rng:
    """SplitMix64 pseudo-random stream.

    Implemented in full here so that every report is reproducible bit for bit
    from its seed, independent of platform and Python version.  State update:
    ``s += 0x9E3779B97F4A7C15``; output: two xor-shift-multiply mixing rounds.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias.

        Each draw joins as many 64-bit outputs as ``n - 1`` needs, most
        significant first; for n <= 2**64 that is a single output.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        words = max(1, ((n - 1).bit_length() + 63) // 64)
        span = 1 << (64 * words)
        limit = span - 1 - span % n
        while True:
            x = 0
            for _ in range(words):
                x = (x << 64) | self.u64()
            if x <= limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def split(self, *indices: int) -> "Rng":
        """Derive an independent stream; injective over the index tuple."""
        child = Rng(self.seed)
        for ix in indices:
            mixer = Rng((child.seed ^ (ix + 0x632BE59BD9B4E019)) & _MASK64)
            child = Rng(mixer.u64())
        return child


def derive_seed(seed: int, *indices: int) -> int:
    return Rng(seed).split(*indices).seed


# ---------------------------------------------------------------------------
# Modular linear algebra


def mat_copy(m):
    return [row[:] for row in m]


def det_mod(mat, p: int) -> int:
    """Determinant over F_p, by the sparse elimination of ``_solve_mod``."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    return _solve_mod(mat, p)[1]


def rank_mod(mat, p: int) -> int:
    """Rank over F_p, by the sparse elimination of ``_solve_mod``."""
    return _solve_mod(mat, p)[0]


# Pivot plans of ``_solve_mod``, keyed by the shape and sparsity pattern of
# A; beyond _PLAN_LIMIT patterns the oldest plan is evicted, by one popitem
# call, which stays safe under concurrent use.  A plan changes no result.
_PLANS: OrderedDict = OrderedDict()
_PLAN_LIMIT = 64


def _solve_mod(a, p: int, b=None):
    """(rank A, det A, A^{-1} B) over F_p by one sparse elimination.

    A may be rectangular.  The determinant is 0 unless A is square and
    invertible; the solution is None unless, in addition, B is given.

    The rows of A are held as {column: value} dicts, the rows of B as dense
    lists riding along.  Each pivot is the entry of least Markowitz cost
    (r - 1)(c - 1), with r and c the nonzero counts of its row and column,
    among the entries that are nonzero at the actual values (Markowitz
    1957).  Choosing on values matters: the action matrix repeats
    coordinates, so entries cancel and an order fixed from the sparsity
    pattern alone can meet a zero pivot.  Rows that cancel to zero leave
    the elimination, so the pivot count is the rank.  Back substitution
    through the pivot rows then gives the solution rows.

    The search is the costly part, and a certification meets only a few
    sparsity patterns, so the (row, column) pivot sequence of the first
    elimination of each pattern is kept as its plan.  A later A with the
    same pattern replays the plan while each planned entry is still
    nonzero, and searches from the first step that fails.  That check also
    keeps the planned row active: the plan never repeats a row, and a row
    that cancelled to zero holds no entry.  Rank, determinant and
    A^{-1} B do not depend on the pivot order, so a replay changes no
    result.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    rows = [{j: v for j, x in enumerate(row) if (v := x % p)} for row in a]
    # without B every row of B is empty, so its updates cost nothing
    rhs = [row[:] for row in b] if b is not None else [[] for _ in range(m)]
    cols = [set() for _ in range(n)]  # active rows with a nonzero in each column
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def col_count(j):
        return len(cols[j])

    key = (n, tuple(map(tuple, rows)))
    plan = _PLANS.get(key)
    replay = iter(plan or ())
    active = {i for i, row in enumerate(rows) if row}
    pivots = []
    det = 1
    while active:
        step = next(replay, None)
        if step and step[1] in rows[step[0]]:
            r, c = step
        else:
            replay = iter(())
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
        pivots.append((r, c, inv))
        # B's rows are reduced only when they become pivot rows
        prhs = rhs[r] = [y % p for y in rhs[r]]
        for i in list(cols[c]):
            row = rows[i]
            f = row.pop(c) * inv % p
            cols[c].discard(i)
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
            rhs[i] = [x - f * y for x, y in zip(rhs[i], prhs)]
    if plan is None:
        if len(_PLANS) >= _PLAN_LIMIT:
            _PLANS.popitem(last=False)
        _PLANS[key] = tuple((r, c) for r, c, _ in pivots)
    rank = len(pivots)
    if not rank == m == n:
        return rank, 0, None
    # sign of the permutation row r -> column c
    perm = [0] * n
    for r, c, _ in pivots:
        perm[r] = c
    seen = [False] * n
    for i in range(n):
        if not seen[i]:
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                det = -det
    if b is None:
        return rank, det % p, None
    x = [None] * n
    for r, c, inv in reversed(pivots):
        acc = rhs[r]
        for j, u in rows[r].items():
            acc = [s - u * y for s, y in zip(acc, x[j])]
        x[c] = [s % p * inv % p for s in acc]
    return rank, det % p, x


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
# Field dispatch: ``p`` a prime for F_p, or None for the rationals Q


def det(mat, p: int | None):
    return det_exact(mat) if p is None else det_mod(mat, p)


def rank(mat, p: int | None) -> int:
    return rank_exact(mat) if p is None else rank_mod(mat, p)


def reduce(x, p: int | None):
    """x as an element of the field: its residue mod p, or x itself."""
    return x if p is None else x % p


def power(x, k: int, p: int | None):
    """x**k in the field; a negative k inverts x."""
    return Fraction(x) ** k if p is None else pow(x, k, p)


def random_scalar(rng: Rng, p: int | None) -> int:
    """A random scalar outside {0, 1, -1}: uniform on [2, p - 2] over F_p,
    on [2, 19] over Q."""
    return rng.randint(2, 19) if p is None else 2 + rng.below(p - 3)


# ---------------------------------------------------------------------------
# Univariate polynomials (coefficient lists, constant term first)


def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_degree(f) -> int:
    """Degree, with the convention deg 0 = -1."""
    return len(f) - 1


def poly_add(f, g, p=None):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    if p is not None:
        out = [x % p for x in out]
    return poly_trim(out)


def poly_scale(f, c, p=None):
    out = [c * x for x in f]
    if p is not None:
        out = [x % p for x in out]
    return poly_trim(out)


def poly_mul(f, g, p=None):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    if p is not None:
        out = [x % p for x in out]
    return poly_trim(out)


def poly_eval(f, t, p=None):
    acc = 0
    for c in reversed(f):
        acc = acc * t + c
        if p is not None:
            acc %= p
    return acc


def poly_deriv(f, p=None):
    out = [i * c for i, c in enumerate(f)][1:]
    if p is not None:
        out = [x % p for x in out]
    return poly_trim(out)


def poly_monic(f, p=None):
    if not f:
        return []
    lead = f[-1]
    inv = pow(lead, -1, p) if p is not None else 1 / Fraction(lead)
    return poly_scale(f, inv, p)


def poly_divmod(f, g, p: int):
    """Quotient and remainder over F_p."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    while len(r) >= len(g):
        c = r[-1] * inv % p
        k = len(r) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] = (r[k + i] - c * b) % p
        poly_trim(r)
        if not r:
            break
    return poly_trim(q), r


def poly_gcd(f, g, p=None):
    """Monic gcd; errors when both inputs are zero.

    Over F_p by Euclid's algorithm.  Over Q by a primitive pseudo-remainder
    sequence on integer coefficients (Collins 1967; Brown 1971): the inputs
    are scaled to integers, and each pseudo-remainder is divided by its
    content, which keeps the coefficients small without any rational
    arithmetic.  The last nonzero remainder, made monic, is the gcd.
    """
    f, g = list(f), list(g)
    poly_trim(f)
    poly_trim(g)
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    if p is None:
        f, g = _primitive_part(f), _primitive_part(g)
        while g:
            f, g = g, _primitive_part(_pseudo_remainder(f, g))
        return poly_monic(f)
    while g:
        _, r = poly_divmod(f, g, p)
        f, g = g, r
    return poly_monic(f, p)


def _primitive_part(f):
    """f scaled to coprime integer coefficients (the zero polynomial stays [])."""
    ints = _clear_denominators(f)[1]
    content = gcd(*ints)
    return [x // content for x in ints] if content > 1 else ints


def _pseudo_remainder(f, g):
    """The remainder of f by g times a nonzero integer, for integer
    coefficient lists f and g != 0.

    Each step cancels the leading term c*t^(k+n) of r, with n = deg g, by
    r <- (b/h)*r - (c/h)*t^k*g, where b = lc(g) and h = gcd(b, c), so the
    multiplier stays as small as the leading coefficients allow.
    """
    n = len(g) - 1
    low = g[:-1]
    lead = g[-1]
    r = list(f)
    while len(r) > n:
        c = r.pop()
        k = len(r) - n
        h = gcd(lead, c)
        b, c = lead // h, c // h
        r = [b * x for x in r[:k]] + [b * x - c * y for x, y in zip(r[k:], low)]
        poly_trim(r)
    return r


def interpolate(points, p=None):
    """Lagrange interpolation through (t, f(t)) pairs.

    Over F_p when ``p`` is given, otherwise exact over Fractions.  Raises on
    duplicate abscissae.
    """
    ts = [t for t, _ in points]
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate abscissa in interpolation data")
    result = []
    for i, (ti, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = [1]
        denom = 1
        for j, (tj, _) in enumerate(points):
            if j == i:
                continue
            basis = poly_mul(basis, [-tj, 1], p)
            denom = (denom * (ti - tj)) % p if p is not None else denom * (ti - tj)
        if p is not None:
            c = yi * pow(denom, -1, p) % p
        else:
            c = Fraction(yi, 1) / denom
        result = poly_add(result, poly_scale(basis, c, p), p)
    return result


# ---------------------------------------------------------------------------
# Characteristic polynomial and determinant of a matrix pencil


def charpoly_mod(mat, p: int):
    """Coefficients of det(t*I - A) over F_p, via Hessenberg reduction.

    A left-looking pass (Cohen, *A Course in Computational Algebraic Number
    Theory*, section 2.2) solves A*L = L*H one column at a time, with L
    unit lower triangular and H upper Hessenberg.  Column k of H comes from
    the mat-vec A*l_k and a unit triangular solve against the rows of L;
    the residual below gives the subdiagonal entry H[k+1][k] and l_{k+1}.
    When the residual vanishes at k+1, index k+1 is swapped with a later
    one where it does not; when it vanishes everywhere, l_{k+1} = e_{k+1}
    starts a new Krylov block with H[k+1][k] = 0.

    Each column of H feeds the recurrence for the characteristic
    polynomials of the leading principal minors as soon as it is made, so
    only the subdiagonal of H is kept.  The coefficients are held by
    degree, ``coeffs[j]`` listing the t^j coefficient of every minor of
    order at least j, which makes each step of the recurrence one dot
    product per coefficient.  All loops over n are such dot products.
    """
    n = len(mat)
    a = mat
    lrows = [[] for _ in range(n)]  # row j of L left of its diagonal 1
    sub = [0] * n  # sub[k] = H[k][k-1]
    coeffs = [[1]]  # the charpoly of the 0x0 minor
    lk = [1] + [0] * (n - 1)  # l_k from index k on
    for k in range(n):
        for j in range(k + 1, n):
            lrows[j].append(lk[j - k])
        v = [sum(map(mul, row[k:], lk)) for row in a]
        h = []  # column k of H, rows 0..k
        for j in range(k + 1):
            h.append((v[j] - sum(map(mul, h, lrows[j]))) % p)
        res = [(v[j] - sum(map(mul, h, lrows[j]))) % p for j in range(k + 1, n)]
        # w[i] = H[i][k] * sub[i+1] * ... * sub[k], weighting the minor of order i
        w = [0] * (k + 1)
        prod = 1
        for i in range(k, -1, -1):
            w[i] = h[i] * prod % p
            prod = prod * sub[i] % p
            if not prod:
                break
        for j, cj in enumerate(coeffs):
            cj.append(((coeffs[j - 1][-2] if j else 0) - sum(map(mul, w[j:], cj))) % p)
        coeffs.append([1])
        if k + 1 == n:
            break
        piv = next((i for i, x in enumerate(res) if x), None)
        if piv is None:
            lk = [1] + [0] * (n - k - 2)
        else:
            if piv:
                j = k + 1 + piv
                if a is mat:
                    a = mat_copy(mat)
                a[k + 1], a[j] = a[j], a[k + 1]
                for row in a:
                    row[k + 1], row[j] = row[j], row[k + 1]
                lrows[k + 1], lrows[j] = lrows[j], lrows[k + 1]
                res[0], res[piv] = res[piv], res[0]
            sub[k + 1] = res[0]
            inv = pow(res[0], -1, p)
            lk = [1] + [x * inv % p for x in res[1:]]
    return [cj[-1] for cj in coeffs]


def det_pencil_poly(m0, m1, p: int):
    """Coefficients of f(t) = det(M0 + t*M1) over F_p, or None when M1 is
    singular.

    det(M0 + t M1) = det M1 * det(t I + M1^{-1} M0), so ``_solve_mod``
    solves M1 against M0, and with X = M1^{-1} M0,
    det(t I + X) = (-1)^n chi_X(-t) flips the signs of alternate
    coefficients of the characteristic polynomial of X.  The leading
    coefficient is det M1, so f has full degree whenever it is returned.
    """
    n = len(m0)
    if n == 0:
        return [1]
    _, det_m1, x = _solve_mod(m1, p, m0)
    if x is None:
        return None
    chi = charpoly_mod(x, p)
    neg = (p - det_m1) % p
    return [c * (neg if (n - i) % 2 else det_m1) % p for i, c in enumerate(chi)]
