"""Arithmetic substrate: prime fields, seeded randomness, modular linear
algebra, and univariate polynomials.

Conventions used throughout the package:

* a matrix is a list of row lists; the 0x0 matrix is ``[]`` and has
  determinant 1 and rank 0;
* over a prime field of modulus ``p`` entries are ints in ``[0, p)``;
  exact matrices hold ints or :class:`fractions.Fraction`;
* a univariate polynomial is a coefficient list, constant term first,
  with trailing zeros trimmed (the zero polynomial is ``[]``);
* a field argument ``p`` is a prime for F_p or None for Q; ``det``,
  ``reduce``, ``power`` and ``det_pencil_poly`` make that choice once, so
  that callers keep one code path for both fields.

Every determinant, rank and solve over F_p is the sparse elimination of
``_factor_mod``.  The package's one other elimination is
``repmatrix._row_basis``: a pass over a witness's small block B_z, in either
field, that picks its pivot rows for the handle pencils.  There is one gcd,
Euclid's over F_p.  A determinant over Q, of a matrix or of a pencil, is
computed at several primes and lifted by the Chinese remainder theorem
(``_crt_lift``) past Hadamard's bound.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, compress, islice
from math import isqrt, lcm
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
def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below ``_MR_BOUND``, the range
    where ``is_prime`` is exact.  A prime of ``_CRT_PRIMES`` (the default
    prime among them) passes with no test; any other runs Miller-Rabin once
    per process, by the cache, and a rejection is not cached."""
    if p in _CRT_PRIMES:
        return
    if p >= _MR_BOUND:
        raise ValueError(
            f"modulus {p} is too large: primality is proven only below {_MR_BOUND}"
        )
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


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
    return rank, det * _permutation_sign(perm) % p, lu


def _permutation_sign(perm) -> int:
    """+1 or -1, the sign of the permutation i -> perm[i] of range(n): each
    cycle of even length flips it."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    return sign


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


# ---------------------------------------------------------------------------
# Field dispatch: ``p`` a prime for F_p, or None for the rationals Q


def det(mat, p: int | None):
    """Determinant over F_p, or over Q (``p`` None) for int/Fraction entries.

    Over Q each row is scaled to integers by the lcm of its denominators,
    and ``_crt_lift`` lifts ``det_mod`` of the integer matrix from the
    primes of ``_crt_prime`` until their product exceeds twice Hadamard's
    bound prod_i |row_i|_2; the scale is divided out.
    """
    if p is not None:
        return det_mod(mat, p)
    rows = []
    scale = bound = 1
    for row in mat:
        mult = 1
        for x in row:
            mult = lcm(mult, x.denominator)
        ints = [x.numerator * (mult // x.denominator) for x in row]
        rows.append(ints)
        scale *= mult
        # isqrt(s) + 1 exceeds the norm sqrt(s)
        bound *= isqrt(sum(x * x for x in ints)) + 1
    return Fraction(_crt_lift(lambda q: [det_mod(rows, q)], bound)[0], scale)


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


def poly_monic(f, p: int):
    if not f:
        return []
    return poly_scale(f, pow(f[-1], -1, p), p)


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
        r[k:] = [(x - c * b) % p for x, b in zip(r[k:], g)]
        poly_trim(r)
        if not r:
            break
    return poly_trim(q), r


def poly_gcd(f, g, p: int):
    """Monic gcd over F_p, by Euclid's algorithm; errors when both inputs
    are zero."""
    f, g = list(f), list(g)
    poly_trim(f)
    poly_trim(g)
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    while g:
        _, r = poly_divmod(f, g, p)
        f, g = g, r
    return poly_monic(f, p)


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
    factors of M1, so X is never formed.  det(t I + X) = (-1)^n chi_X(-t)
    flips the signs of alternate coefficients of the characteristic
    polynomial of X.  The leading coefficient is det M1, so f has full
    degree whenever it is returned.  The reduction runs at the full size n:
    a zero column of M0 is a zero column of X, and only costs time, so the
    handle pencils take theirs out beforehand (``repmatrix.sink_reduction``).

    Over Q the same kernel runs at the primes of ``_crt_prime``, skipping
    those that divide det M1, and ``_crt_lift`` lifts the coefficients by
    the Chinese remainder theorem to symmetric residues.  Expanding the
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
    chi = _charpoly_op(lambda u: _run_operator(op, u, p), n, p)
    neg = (p - det_m1) % p
    return [c * (neg if (n - i) % 2 else det_m1) % p for i, c in enumerate(chi)]


def _compile_operator(m0, lu, p: int):
    """The operator u -> X u of ``det_pencil_poly``, X = M1^{-1} M0, for the
    factors ``lu`` of M1 by ``_factor_mod``.

    Returns (forward, backward) for ``_run_operator``.  Forward step k,
    with pivot row r, is one pair of index and coefficient tuples over the
    list z = u + y, which the pass grows by y_k: row r of M0 on its nonzero
    columns (indices into u), then the earlier steps that updated row r
    (indices into y), each with its multiplier f stored as p - f.  So y_k =
    (L^{-1} M0 u)_k is one gathered product.  The backward steps are those
    of the factors, in back-substitution order, so they meet y from its
    end.
    """
    n = len(m0)
    cols = range(n)
    lower, upper = lu
    forward = tuple(
        ((*compress(cols, m0[r]), *(n + k for k in steps)),
         (*filter(None, m0[r]), *(p - f for f in fs)))
        for r, steps, fs in lower
    )
    return forward, upper


def _run_operator(op, u, p: int):
    """X u over F_p for an operator of ``_compile_operator``: one gathered
    product per forward step, and one per backward step."""
    forward, backward = op
    z = list(u)
    get = z.__getitem__
    push = z.append
    for idx, coef in forward:
        push(sum(map(mul, coef, map(get, idx))) % p)
    x = [0] * len(u)
    xget = x.__getitem__
    # backward step i solves for the pivot of forward step n - 1 - i
    for y, (c, inv, idx, vals) in zip(reversed(z), backward):
        x[c] = (y - sum(map(mul, vals, map(xget, idx)))) * inv % p
    return x


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


def _crt_lift(residues_at, bound: int):
    """The integers of absolute value at most ``bound`` whose residues
    modulo each prime q of ``_crt_prime`` are ``residues_at(q)``, a list of
    the same length at every prime, or None where q is to be skipped.

    Garner's algorithm adds one prime at a time until the product of the
    primes used exceeds 2 * bound, and the lift is taken to symmetric
    residues.  Returns None once the skipped primes multiply past 2 * bound.
    """
    limit = 2 * bound
    lifted = None
    modulus = skipped = 1
    i = 0
    while modulus <= limit:
        q = _crt_prime(i)
        i += 1
        residues = residues_at(q)
        if residues is None:
            skipped *= q
            if skipped > limit:
                return None
            continue
        if lifted is None:
            lifted = [0] * len(residues)
        # Garner's step: keep each residue mod modulus, add the one mod q
        inv = pow(modulus, -1, q)
        lifted = [c + modulus * ((r - c) * inv % q) for c, r in zip(lifted, residues)]
        modulus *= q
    return [c - modulus if 2 * c > modulus else c for c in lifted]


def _det_pencil_poly_q(m0, m1):
    """``det_pencil_poly`` over Q for integer M0 and M1, lifted by
    ``_crt_lift`` from the pencil at each prime.  A prime where M1 is
    singular is skipped.  The bound of ``det_pencil_poly`` covers the
    leading coefficient det M1, and every skipped prime divides it, so
    skipped primes whose product exceeds the bound prove det M1 = 0."""
    bound = 1
    for r0, r1 in zip(m0, m1):
        # isqrt(s) + 1 exceeds the norm sqrt(s)
        bound *= isqrt(sum(x * x for x in r0)) + isqrt(sum(x * x for x in r1)) + 2
    return _crt_lift(lambda q: det_pencil_poly(m0, m1, q), bound)
