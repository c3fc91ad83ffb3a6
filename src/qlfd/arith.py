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
  ``rank``, ``reduce``, ``power`` and ``det_pencil_poly`` make that
  choice once, so that callers keep one code path for both fields.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, compress, islice
from math import gcd, isqrt, lcm
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


@lru_cache(maxsize=16)
def _check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime below ``_MR_BOUND``.  Cached, so
    a modulus checked twice in one process (the CLI's option prime, then
    ``CertifyOptions``) runs Miller-Rabin once; a rejection is not cached."""
    if p >= _MR_BOUND:
        raise ValueError(
            f"modulus {p} is too large: primality is proven only below {_MR_BOUND}"
        )
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class PrimeField:
    """A prime field F_p; primality of the modulus is checked on construction,
    so the modulus must lie in the range where ``is_prime`` is exact."""

    def __init__(self, p: int):
        _check_modulus(p)
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


def det_mod(mat, p: int) -> int:
    """Determinant over F_p, by the sparse elimination of ``_factor_mod``."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    return _factor_mod(mat, p)[1]


def rank_mod(mat, p: int) -> int:
    """Rank over F_p, by the sparse elimination of ``_factor_mod``."""
    return _factor_mod(mat, p)[0]


# Pivot plans of ``_factor_mod``, keyed by the shape and sparsity pattern of
# A, each carrying the schedule compiled from it once it is replayed; beyond
# _PLAN_LIMIT patterns the oldest plan and its schedule are evicted, by one
# popitem call, which stays safe under concurrent use.  Neither changes a
# result.
_PLANS: OrderedDict = OrderedDict()
_PLAN_LIMIT = 64


# The shortest active rows the pivot search of ``_search_mod`` looks at in
# each step.  At 4 the size-118 E8 action matrix factors with less fill than
# under the search over every row (1377 off-diagonal entries of U against
# 1470); 2 and 8 gave more.
_SEARCH_ROWS = 4


class _Plan(tuple):
    """The (row, column) pivot sequence of the first elimination of a
    sparsity pattern; ``schedule`` is compiled from it on its first replay."""

    schedule = None


def _factor_mod(a, p: int, lower: bool = False):
    """(rank A, det A, LU factors of A) over F_p by one sparse elimination.

    A may be rectangular.  The determinant is 0 unless A is square and
    invertible; the factors are None unless, in addition, ``lower`` asks
    for them.  They are the elimination itself, as ``_compile_operator``
    uses it: the forward steps (pivot row, the earlier steps whose pivot rows
    updated it, their multipliers) in pivot order, and the backward steps
    (pivot column, inverse pivot, the pivot row's off-pivot columns and
    values) in reverse order.  Only a solve needs the multipliers, so a
    determinant or rank does not record them.

    There are two paths.  The first sighting of a sparsity pattern (the
    shape and the positions of the nonzero entries as given; an entry that
    is a nonzero multiple of p only widens the pattern) runs the restricted
    Markowitz search of ``_search_mod``, which looks at the few shortest
    rows in each step (Zlatev 1980), and keeps its (row, column) pivot
    sequence as the pattern's plan.  The first replay compiles the plan
    into a fixed schedule (``_compile_schedule``), and every later A with
    that pattern runs the schedule (``_run_schedule``): the symbolic
    analysis is reused and only the numbers change, as in the refactor step
    of sparse LU (Davis and Palamadai Natarajan 2010).  When a planned
    pivot is zero mod p, or rows are left nonzero after a plan shorter than
    A, the search runs from A and the plan is kept.  So a pattern seen once
    compiles nothing.

    Rank, determinant and the solves through the factors do not depend on
    the pivot order or on when entries are reduced, so the path changes no
    result.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    # the key lists each row's nonzero columns, ending each row with -1:
    # column indices below 257 are shared small ints, so a kept key costs
    # one pointer per nonzero entry
    key = [n]
    cols = range(n)
    for row in a:
        key.extend(compress(cols, row))
        key.append(-1)
    key = tuple(key)
    plan = _PLANS.get(key)
    out = None
    if plan is not None:
        if plan.schedule is None:
            plan.schedule = _compile_schedule(plan, a)
        out = _run_schedule(plan.schedule, a, p, lower)
    if out is None:
        out = _search_mod(a, p, lower)
        if plan is None:
            if len(_PLANS) >= _PLAN_LIMIT:
                _PLANS.popitem(last=False)
            _PLANS[key] = _Plan(out[1])
    det, pivots, lu = out
    rank = len(pivots)
    if not rank == m == n:
        return rank, 0, None
    # sign of the permutation row r -> column c
    perm = [0] * n
    for r, c in pivots:
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
    return rank, det % p, lu


def _search_mod(a, p: int, lower: bool):
    """(det of the pivots, pivots, factors) by a Markowitz-pivoted sparse
    elimination of A, for ``_factor_mod``.

    The rows of A are held as {column: value} dicts, and the active rows in
    buckets by nonzero count.  Each pivot is the entry of least Markowitz
    cost (r - 1)(c - 1), with r and c the nonzero counts of its row and
    column, among the entries that are nonzero at the actual values
    (Markowitz 1957) in the ``_SEARCH_ROWS`` shortest active rows only:
    the restricted search of Zlatev (1980), which looks at a few rows per
    step in place of every active row.  The rows are taken in order of
    nonzero count, then row index, and a cost of 0 ends the search; ties go
    to the first row in that order and, within a row, to its first entry of
    least column count, so the choice does not depend on hashing.  Choosing
    on values matters: the action matrix repeats coordinates, so entries
    cancel and an order fixed from the sparsity pattern alone can meet a
    zero pivot.  Rows that cancel to zero leave the elimination, so the
    pivot count is the rank.  Each pivot is listed as (row, column); the
    factors, as ``_factor_mod`` describes them, are None unless ``lower``.
    """
    n = len(a[0]) if a else 0
    rows = [{j: v for j, x in enumerate(row) if (v := x % p)} for row in a]
    cols = [set() for _ in range(n)]  # active rows with a nonzero in each column
    buckets = [set() for _ in range(n + 1)]  # active rows by nonzero count
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
        if row:
            buckets[len(row)].add(i)

    def col_count(j):
        return len(cols[j])

    pivots = []
    det = 1
    if lower:
        lrows = [([], []) for _ in a]  # (earlier steps, multipliers) per row
        forward, backward = [], []
    while True:
        best = None
        shortest = chain.from_iterable(map(sorted, filter(None, buckets)))
        for i in islice(shortest, _SEARCH_ROWS):
            row = rows[i]
            j = min(row, key=col_count)
            cost = (len(row) - 1) * (len(cols[j]) - 1)
            if best is None or cost < best[0]:
                best = (cost, i, j)
                if not cost:
                    break
        if best is None:
            break  # no active row is left
        _, r, c = best
        prow = rows[r]
        buckets[len(prow)].discard(r)
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
            count = len(row)
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
            if len(row) != count:
                buckets[count].discard(i)
                if row:
                    buckets[len(row)].add(i)
    return det, pivots, (forward, backward[::-1]) if lower else None


def _compile_schedule(plan, a):
    """The fixed elimination schedule of a pivot plan on the sparsity
    pattern of A.

    A symbolic elimination of the pattern, in plan order, gives each step
    as (pivot row, pivot column, the pivot row's off-pivot columns after
    fill, the rows the step updates), and lists each row the plan leaves
    unpivoted with the columns it may hold at the end.
    """
    n = len(a[0]) if a else 0
    pattern = [set(compress(range(n), row)) for row in a]  # as in the plan key
    colrows = [set() for _ in range(n)]  # unpivoted rows holding each column
    for i, row in enumerate(pattern):
        for j in row:
            colrows[j].add(i)
    steps = []
    for r, c in plan:
        prow = pattern[r]
        pattern[r] = set()
        for j in prow:
            colrows[j].discard(r)
        prow.discard(c)
        cols = tuple(sorted(prow))
        targets = tuple(sorted(colrows[c]))
        for i in targets:
            row = pattern[i]
            row.discard(c)
            for j in cols:
                if j not in row:
                    row.add(j)
                    colrows[j].add(i)
        colrows[c].clear()
        steps.append((r, c, cols, targets))
    rest = tuple((i, tuple(sorted(row))) for i, row in enumerate(pattern) if row)
    return tuple(steps), rest


def _run_schedule(schedule, a, p: int, lower: bool):
    """``_search_mod``'s result by a compiled schedule, or None when a
    planned pivot is zero mod p or an unpivoted row is left nonzero.

    The rows are plain lists sharing A's ints.  Reduction is lazy: a target
    entry takes ``row[j] -= f * y`` with only the factor f and the pivot
    row's entries y reduced, and a row is reduced when it becomes the pivot
    row.
    """
    steps, rest = schedule
    rows = [list(row) for row in a]
    pivots = []
    det = 1
    if lower:
        lrows = [([], []) for _ in a]  # (earlier steps, multipliers) per row
        forward, backward = [], []
    for step, (r, c, cols, targets) in enumerate(steps):
        prow = rows[r]
        pv = prow[c] % p
        if not pv:
            return None
        inv = pow(pv, -1, p)
        det = det * pv % p
        ys = [prow[j] % p for j in cols]
        pivots.append((r, c))
        if lower:
            forward.append((r, *lrows[r]))
            backward.append((c, inv, cols, ys))
        for i in targets:
            row = rows[i]
            f = row[c] * inv % p
            if f:
                for j, y in zip(cols, ys):
                    row[j] -= f * y
                if lower:
                    lrows[i][0].append(step)
                    lrows[i][1].append(f)
    for i, cols in rest:
        row = rows[i]
        if any(row[j] % p for j in cols):
            return None
    return det, pivots, (forward, backward[::-1]) if lower else None


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


# ---------------------------------------------------------------------------
# Univariate polynomials (coefficient lists, constant term first)


def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_degree(f) -> int:
    """Degree, with the convention deg 0 = -1."""
    return len(f) - 1


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


# ---------------------------------------------------------------------------
# Characteristic polynomial and determinant of a matrix pencil


def _charpoly_op(apply, n: int, p: int):
    """Coefficients of det(t*I - A) over F_p, A an n x n operator given by
    ``apply(u) = A u`` (any ints, reduced here), via Hessenberg reduction.

    A left-looking pass (Cohen, *A Course in Computational Algebraic Number
    Theory*, section 2.2) solves A*L = L*H one column at a time, with L
    unit lower triangular and H upper Hessenberg.  Column k of H comes from
    the product A*l_k and a unit triangular solve against the rows of L;
    the residual below gives the subdiagonal entry H[k+1][k] and l_{k+1}.
    When the residual vanishes at k+1, index k+1 is swapped with a later
    one where it does not, a symmetric permutation of A kept in ``perm``;
    when it vanishes everywhere, l_{k+1} = e_{k+1} starts a new Krylov
    block with H[k+1][k] = 0.

    Each column of H feeds the recurrence for the characteristic
    polynomials of the leading principal minors as soon as it is made, so
    only the subdiagonal of H is kept.  The coefficients are held by
    degree, ``coeffs[j]`` listing the t^j coefficient of every minor of
    order at least j, which makes each step of the recurrence one dot
    product per coefficient.  All loops over n are such dot products.
    """
    perm = list(range(n))  # index i of the permuted operator is perm[i] of A
    lrows = [[] for _ in range(n)]  # row j of L left of its diagonal 1
    sub = [0] * n  # sub[k] = H[k][k-1]
    coeffs = [[1]]  # the charpoly of the 0x0 minor
    lk = [1] + [0] * (n - 1)  # l_k from index k on
    for k in range(n):
        for j in range(k + 1, n):
            lrows[j].append(lk[j - k])
        u = [0] * n
        for i, x in zip(perm[k:], lk):
            u[i] = x
        v = list(map(apply(u).__getitem__, perm))
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
                perm[k + 1], perm[j] = perm[j], perm[k + 1]
                lrows[k + 1], lrows[j] = lrows[j], lrows[k + 1]
                res[0], res[piv] = res[piv], res[0]
            sub[k + 1] = res[0]
            inv = pow(res[0], -1, p)
            lk = [1] + [x * inv % p for x in res[1:]]
    return [cj[-1] for cj in coeffs]


def det_pencil_poly(m0, m1, p: int | None):
    """Coefficients of f(t) = det(M0 + t*M1) over F_p, or over Q (``p``
    None, integer entries), or None when M1 is singular.

    det(M0 + t M1) = det M1 * det(t I + M1^{-1} M0).  Over F_p,
    ``_factor_mod`` factors M1, and the Hessenberg reduction of
    ``_charpoly_op`` takes X = M1^{-1} M0 as an operator, compiled once per
    pencil by ``_compile_operator`` from the sparse rows of M0 and the
    factors of M1, so X is never formed.  X is zero on every column where
    M0 is, so with the m live columns of M0 first, det(t I + X) =
    t^(n-m) det(t I_m + X[live, live]), and the reduction runs on the live
    block only.  det(t I + X) = (-1)^n chi_X(-t) flips the signs of
    alternate coefficients of the characteristic polynomial of X.  The
    leading coefficient is det M1, so f has full degree whenever it is
    returned.

    Over Q the same kernel runs at the primes of ``_crt_prime``, skipping
    those that divide det M1, and the coefficients are lifted by the
    Chinese remainder theorem to symmetric residues.  Expanding the
    determinant row by row, c_k is a sum of determinants that take each
    row from M0 or from M1, so by Hadamard's inequality
    |c_k| <= prod_i (|row_i M0|_2 + |row_i M1|_2), and primes are added
    until their product exceeds twice that bound.
    """
    n = len(m0)
    if n == 0:
        return [1]
    if p is None:
        return _det_pencil_poly_q(m0, m1)
    _, det_m1, lu = _factor_mod(m1, p, True)
    if lu is None:
        return None
    op = _compile_operator(m0, lu, p)
    m = op[0]
    chi = [0] * (n - m) + _charpoly_op(lambda u: _run_operator(op, u, p), m, p)
    neg = (p - det_m1) % p
    return [c * (neg if (n - i) % 2 else det_m1) % p for i, c in enumerate(chi)]


def _compile_operator(m0, lu, p: int):
    """The operator u -> X[live, live] u of ``det_pencil_poly``, X =
    M1^{-1} M0, for the factors ``lu`` of M1 by ``_factor_mod``.

    Returns (m, size, forward, backward) for ``_run_operator``, with m the
    number of live columns of M0.  Forward step k, with pivot row r, is one
    pair of index and coefficient tuples over the list z = u + y, which the
    pass grows by y_k: row r of M0 on the live columns (indices into u),
    then the earlier steps that updated row r (indices into y), each with
    its multiplier f stored as p - f.  So y_k = (L^{-1} M0 u)_k is one
    gathered product.  The backward pass needs the solution only on the
    live columns, which read the columns of their pivot rows in U, and so
    on: it keeps only the steps whose pivot column lies in that closure, in
    back-substitution order, as (position, index of y_k in z, inverse pivot,
    positions of the pivot row's other columns, their values), with
    positions in a list of ``size`` entries that holds the live columns
    first.
    """
    n = len(m0)
    cols = range(n)
    supports = [tuple(compress(cols, row)) for row in m0]
    live = sorted(set().union(*supports))
    m = len(live)
    at = {j: i for i, j in enumerate(live)}  # column of M0 -> index in u
    lower, upper = lu
    forward = tuple(
        ((*map(at.__getitem__, supports[r]), *(m + k for k in steps)),
         (*(m0[r][j] for j in supports[r]), *(p - f for f in fs)))
        for r, steps, fs in lower
    )
    # U's pivot rows hold only later pivot columns, so one pass in pivot
    # order closes the live columns under "its pivot row reads column j"
    need = set(live)
    for c, _, row, _ in reversed(upper):
        if c in need:
            need.update(row)
    for c in sorted(need.difference(live)):
        at[c] = len(at)
    backward = tuple(
        (at[c], m + n - 1 - i, inv, tuple(map(at.__getitem__, row)), vals)
        for i, (c, inv, row, vals) in enumerate(upper)
        if c in need
    )
    return m, len(need), forward, backward


def _run_operator(op, u, p: int):
    """X[live, live] u over F_p for an operator of ``_compile_operator``:
    one gathered product per forward step, and one per kept backward step."""
    m, size, forward, backward = op
    z = list(u)
    get = z.__getitem__
    push = z.append
    for idx, coef in forward:
        push(sum(map(mul, coef, map(get, idx))) % p)
    x = [0] * size
    xget = x.__getitem__
    for c, k, inv, idx, vals in backward:
        x[c] = (z[k] - sum(map(mul, vals, map(xget, idx)))) * inv % p
    return x[:m]


# DEFAULT_PRIME and the primes just below it.  A pencil of exact mode's
# largest size, 24 rows of entries +-99, needs 4 of them; the rest are margin
# for primes that divide det M1.
_CRT_PRIMES = (
    4611686018427387847, 4611686018427387817, 4611686018427387787, 4611686018427387761,
    4611686018427387751, 4611686018427387737, 4611686018427387733, 4611686018427387709,
)


@cache
def _crt_prime(i: int) -> int:
    """The i-th prime of the multimodular pencil over Q, stepping down from
    DEFAULT_PRIME, which is prime 0: listed in ``_CRT_PRIMES``, and searched
    past its end."""
    if i < len(_CRT_PRIMES):
        return _CRT_PRIMES[i]
    q = _crt_prime(i - 1) - 2
    while not is_prime(q):
        q -= 2
    return q


def _det_pencil_poly_q(m0, m1):
    """``det_pencil_poly`` over Q for integer M0 and M1."""
    det_m1 = det_exact(m1)
    if not det_m1:
        return None
    bound = 1
    for r0, r1 in zip(m0, m1):
        # isqrt(s) + 1 exceeds the norm sqrt(s)
        bound *= isqrt(sum(x * x for x in r0)) + isqrt(sum(x * x for x in r1)) + 2
    coeffs = [0] * (len(m0) + 1)
    modulus = 1
    i = 0
    while modulus <= 2 * bound:
        q = _crt_prime(i)
        i += 1
        if det_m1 % q == 0:
            continue
        # Garner's step: keep each residue mod modulus, add the one mod q
        inv = pow(modulus, -1, q)
        f = det_pencil_poly(m0, m1, q)
        coeffs = [c + modulus * ((r - c) * inv % q) for c, r in zip(coeffs, f)]
        modulus *= q
    return [c - modulus if 2 * c > modulus else c for c in coeffs]
