from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from qlfd import arith
from qlfd.arith import (
    DEFAULT_PRIME,
    PrimeField,
    Rng,
    charpoly_mod,
    derive_seed,
    det_exact,
    det_mod,
    det_pencil_poly,
    interpolate,
    is_prime,
    poly_degree,
    poly_deriv,
    poly_eval,
    poly_gcd,
    poly_mul,
    rank_exact,
    rank_mod,
)
from qlfd.arith import _solve_mod
from qlfd.fixtures import builtin
from qlfd.repmatrix import action_matrix

from mpoly import mp_const, mp_det, mp_equal_up_to_sign, mp_mul, mp_var

P = DEFAULT_PRIME


def rand_matrix(rng, n, p=P):
    return [[rng.below(p) for _ in range(n)] for _ in range(n)]


def test_default_prime_is_62_bit_prime():
    assert is_prime(P)
    assert P.bit_length() == 62


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 97, 2**61 - 1}
    for n in primes:
        assert is_prime(n)
    for n in [0, 1, 4, 91, 561, 2**62 - 1, 25326001]:
        assert not is_prime(n)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(2**62 - 1)
    assert PrimeField(P).inv(7) * 7 % P == 1


def test_prime_field_rejects_moduli_beyond_proven_range():
    # is_prime is exact only below 3317044064679887385961981 (about 3.3e24)
    assert PrimeField(2**80 - 65).p == 2**80 - 65
    for p in (2**89 - 1, 3317044064679887385961981):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)


def test_rng_deterministic_and_distinct():
    a = Rng(42)
    b = Rng(42)
    assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]
    c = Rng(43)
    assert [Rng(42).u64() for _ in range(5)] != [c.u64() for _ in range(5)]


def test_rng_below_range():
    rng = Rng(7)
    vals = [rng.below(10) for _ in range(1000)]
    assert set(vals) <= set(range(10))
    assert len(set(vals)) == 10


def test_rng_below_stream_pinned():
    # bounds up to 2**64 take one 64-bit output per draw, as they always have
    rng = Rng(2024)
    bounds = (1, 2, 7, 10**9, P, 2**63 + 5, 2**64)
    assert [rng.below(n) for n in bounds] == [
        0, 0, 3, 397966425, 1486400518253593637, 2522659877027852951, 11000608607208515474,
    ]
    rng = Rng(99)
    assert [rng.randint(-99, 99) for _ in range(5)] == [58, 64, -77, -42, 25]


def test_rng_below_beyond_64_bits():
    rng = Rng(5)
    n = 2**89 - 1
    vals = [rng.below(n) for _ in range(200)]
    assert all(0 <= v < n for v in vals)
    assert max(vals) >= 2**80


def test_derived_seeds_injective_over_trial_index():
    seeds = {derive_seed(99, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_det_mod_basics():
    assert det_mod([[1, 2], [3, 4]], P) == P - 2
    ident = [[1 if i == j else 0 for j in range(118)] for i in range(118)]
    assert det_mod(ident, P) == 1
    assert det_mod([], P) == 1
    with pytest.raises(ValueError):
        det_mod([[1, 2]], P)


def _det_cofactor(m, p=None):
    # over F_p, or exactly over Q when p is None
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det_cofactor(minor, p)
        total += -term if j % 2 else term
    return total if p is None else total % p


def _rank_by_minors(m, p=None):
    # the order of the largest nonzero minor
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if _det_cofactor([[m[i][j] for j in cs] for i in rs], p):
                    return k
    return 0


def test_det_mod_matches_cofactor_oracle():
    rng = Rng(5)
    for _ in range(20):
        m = rand_matrix(rng, 6)
        assert det_mod(m, P) == _det_cofactor(m, P)


def test_det_mod_118_block_diagonal_cross_check():
    # a 118x118 determinant checked against the cofactor oracle through a
    # 6x6 block embedded in an identity complement
    rng = Rng(8)
    block = rand_matrix(rng, 6)
    n = 118
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(6):
        for j in range(6):
            m[40 + i][40 + j] = block[i][j]
    assert det_mod(m, P) == _det_cofactor(block, P)


def test_det_mod_multiplicative():
    rng = Rng(11)
    for _ in range(200):
        a = rand_matrix(rng, 5)
        b = rand_matrix(rng, 5)
        ab = [[sum(a[i][k] * b[k][j] for k in range(5)) % P for j in range(5)] for i in range(5)]
        assert det_mod(ab, P) == det_mod(a, P) * det_mod(b, P) % P


def test_det_exact_basics():
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([]) == 1
    m = [[Fraction(1, 2), 1], [1, Fraction(3, 2)]]
    assert det_exact(m) == Fraction(3, 4) - 1


def test_det_exact_agrees_with_modular_reduction():
    rng = Rng(21)
    for _ in range(100):
        m = [[rng.randint(-50, 50) for _ in range(8)] for _ in range(8)]
        exact = det_exact(m)
        assert exact.denominator == 1
        assert int(exact) % P == det_mod([[x % P for x in row] for row in m], P)


def test_rank_mod_and_exact_agree():
    rng = Rng(31)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod([[x % P for x in row] for row in m], P) == rank_exact(m)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_det_and_rank_mod_match_minor_oracle(p):
    # shapes up to 4x5, zero rows and columns, unreduced entries in
    # [-2p, 2p), and at these small primes many entries that cancel
    rng = Rng(40 + p)
    for _ in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(0, 5)
        if rng.below(2):
            cols = rows
        m = [[rng.randint(-2 * p, 2 * p - 1) if rng.below(3) else 0 for _ in range(cols)]
             for _ in range(rows)]
        if rows and not rng.below(4):
            m[rng.below(rows)] = [0] * cols
        assert rank_mod(m, p) == _rank_by_minors(m, p)
        if rows == cols:
            assert det_mod(m, p) == _det_cofactor(m, p)


def test_kernel_edge_shapes_and_entries():
    for p in (2, 7, P):
        assert det_mod([], p) == 1 and rank_mod([], p) == 0
        assert rank_mod([[], [], []], p) == 0  # 3x0
        assert rank_mod([[0, 0, 0], [0, 0, 0]], p) == 0
        with pytest.raises(ValueError):
            det_mod([[], []], p)
    # entries cancel during the elimination
    assert det_mod([[1, 1], [1, 1]], 7) == 0 and rank_mod([[1, 1], [1, 1]], 7) == 1
    assert rank_mod([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 7) == 2
    # unreduced entries: 8 = 1 and -6 = 1 mod 7
    assert det_mod([[8, 1], [1, -6]], 7) == 0 and rank_mod([[8, 1], [1, -6]], 7) == 1
    assert det_mod([[-1, 7], [15, 5]], 7) == (-1 * 5 - 7 * 15) % 7
    assert det_exact([]) == 1 and rank_exact([]) == 0 and rank_exact([[], []]) == 0
    with pytest.raises(ValueError):
        det_exact([[1, 2]])


def test_rank_and_det_exact_match_minor_oracle_over_fractions():
    rng = Rng(71)
    for _ in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(0, 5)
        if rng.below(2):
            cols = rows
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if rng.below(3) else 0
              for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and not rng.below(3):
            m[0] = [Fraction(2, 3) * x for x in m[1]]
        assert rank_exact(m) == _rank_by_minors(m)
        if rows == cols:
            assert det_exact(m) == _det_cofactor(m)


def test_interpolate_monomial_and_constant():
    pts = [(t, t * t % P) for t in range(3)]
    assert interpolate(pts, P) == [0, 0, 1]
    assert interpolate([(0, 5), (1, 5), (2, 5)], P) == [5]
    assert interpolate([(0, 0), (1, 0)], P) == []


def test_interpolate_duplicate_abscissa_errors():
    with pytest.raises(ValueError):
        interpolate([(1, 2), (1, 3)], P)


def test_interpolate_round_trip_random_polys():
    rng = Rng(77)
    for _ in range(20):
        deg = rng.randint(0, 30)
        coeffs = [rng.below(P) for _ in range(deg)] + [1 + rng.below(P - 1)]
        pts = [(t, poly_eval(coeffs, t, P)) for t in range(deg + 1)]
        assert interpolate(pts, P) == coeffs


def test_interpolate_exact_fractions():
    pts = [(0, 1), (1, 2), (2, 5)]
    assert interpolate(pts) == [Fraction(1), Fraction(0), Fraction(1)]


def test_poly_gcd_examples():
    # gcd(t^2, 2t) = t
    assert poly_gcd([0, 0, 1], [0, 2], P) == [0, 1]
    f = poly_mul(poly_mul([0, 1], [P - 1, 1], P), [P - 2, 1], P)  # t(t-1)(t-2)
    assert poly_gcd(f, poly_deriv(f, P), P) == [1]
    g = poly_mul([0, 0, 1], [P - 1, 1], P)  # t^2 (t-1)
    assert poly_gcd(g, poly_deriv(g, P), P) == [0, 1]
    with pytest.raises(ValueError):
        poly_gcd([], [], P)


def test_poly_gcd_exact_mode():
    f = [Fraction(0), Fraction(0), Fraction(1)]
    assert poly_gcd(f, poly_deriv(f), None) == [0, 1]


def _gcd_fraction_euclid(f, g):
    """Reference monic gcd over Q: Euclid's algorithm in Fraction arithmetic."""
    f = [Fraction(x) for x in f]
    g = [Fraction(x) for x in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    while g:
        r = f[:]
        while len(r) >= len(g):
            c = r[-1] / g[-1]
            k = len(r) - len(g)
            for i, b in enumerate(g):
                r[k + i] -= c * b
            while r and r[-1] == 0:
                r.pop()
        f, g = g, r
    return [x / f[-1] for x in f]


def _random_rational_poly(rng, deg, ints=False):
    """A polynomial of exact degree deg; with ints=True about half of the
    coefficients are plain ints."""
    def coeff():
        num = rng.randint(-30, 30)
        if ints and rng.below(2):
            return num
        return Fraction(num, rng.randint(1, 12))

    out = [coeff() for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = coeff()
    return out + [lead]


def test_poly_gcd_exact_matches_fraction_euclid():
    rng = Rng(2024)
    cases = 0
    for trial in range(300):
        mixed = trial % 3 == 0
        common = _random_rational_poly(rng, rng.randint(0, 3), mixed)
        u = _random_rational_poly(rng, rng.randint(0, 4), mixed)
        v = _random_rational_poly(rng, rng.randint(0, 4), mixed)
        f = poly_mul(common, u)
        pairs = [
            (f, poly_mul(common, v)),  # common factor
            (u, v),  # a random pair, almost always coprime
            (poly_mul(f, f), poly_deriv(poly_mul(f, f))),  # square
            (f, []),  # one zero input
            ([], v),
            (f, [rng.randint(1, 9)]),  # a constant
            (poly_mul(u, v), [Fraction(rng.randint(1, 9), rng.randint(1, 9))]),
        ]
        for a, b in pairs:
            if not a and not b:
                continue
            got = poly_gcd(a, b, None)
            assert got == _gcd_fraction_euclid(a, b), (a, b)
            assert got[-1] == 1
            cases += 1
    assert cases >= 2000
    with pytest.raises(ValueError):
        poly_gcd([Fraction(0)], [0, 0], None)


def _charpoly_right_looking(mat, p):
    """Reference det(t*I - A) over F_p: the right-looking Hessenberg
    reduction by elementary similarities, then the recurrence over the
    leading principal minors of the full Hessenberg form."""
    n = len(mat)
    h = [row[:] for row in mat]
    for k in range(n - 1):
        piv = next((i for i in range(k + 1, n) if h[i][k] % p), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        pivot_tail = h[k + 1][k:]
        inv = pow(pivot_tail[0], -1, p)
        fs = []
        for i in range(k + 2, n):
            row = h[i]
            f = row[k] * inv % p
            fs.append(f)
            if f:
                row[k:] = [(x - f * y) % p for x, y in zip(row[k:], pivot_tail)]
        if any(fs):
            for row in h:
                row[k + 1] = (row[k + 1] + sum(map(mul, fs, row[k + 2:]))) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        term = [-h[k - 1][k - 1] * c for c in prev]
        term.append(0)
        for j, c in enumerate(prev):
            term[j + 1] += c
        prod = 1
        for m in range(1, k):
            prod = prod * h[k - m][k - m - 1] % p
            if not prod:
                break
            coeff = h[k - 1 - m][k - 1] * prod % p
            if coeff:
                minor = polys[k - 1 - m]
                term[: len(minor)] = [x - coeff * y for x, y in zip(term, minor)]
        polys.append([x % p for x in term])
    return polys[n]


def _shuffled(rng, n):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _structured_matrix(rng, n, p, kind):
    """Random n x n inputs that force pivot swaps and zero subdiagonals:
    dense, sparse, block triangular, nilpotent (a conjugated strictly upper
    triangular matrix) and permutation-like (one scaled entry per row)."""
    if kind == 0:
        return [[rng.randint(-p, 2 * p) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        return [[rng.below(p) if not rng.below(3) else 0 for _ in range(n)] for _ in range(n)]
    perm = _shuffled(rng, n)
    if kind == 2:
        cut = rng.randint(0, n)
        m = [[rng.below(p) if i < cut or j >= cut else 0 for j in range(n)] for i in range(n)]
    elif kind == 3:
        m = [[rng.below(p) if j > i else 0 for j in range(n)] for i in range(n)]
    else:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][perm[i]] = rng.below(p) if rng.below(4) else 1
        return m
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, P])
def test_charpoly_matches_right_looking_reference(p):
    rng = Rng(900 + p % 1000)
    for trial in range(850):
        n = 1 + trial % 8
        m = _structured_matrix(rng, n, p, trial // 8 % 5)
        before = [row[:] for row in m]
        assert charpoly_mod(m, p) == _charpoly_right_looking(m, p), (p, m)
        assert m == before  # pivot swaps work on a copy
    assert charpoly_mod([], p) == [1]


def test_det_pencil_poly_odd_and_even_sizes():
    # det(M0 + t M1) = det M1 * (-1)^n chi_X(-t): the sign flips differ by parity
    rng = Rng(606)
    for p in (5, 101, P):
        for n in range(1, 9):
            m0 = _structured_matrix(rng, n, p, n % 5)
            m1 = rand_matrix(rng, n, p)
            f = det_pencil_poly(m0, m1, p)
            if det_mod(m1, p) == 0:
                assert f is None
                continue
            x = _solve_mod(m1, p, m0)[2]
            neg_x = [[-v % p for v in row] for row in x]
            assert f == [c * det_mod(m1, p) % p for c in _charpoly_right_looking(neg_x, p)]
            for t in range(3):
                mt = [[(a + t * b) % p for a, b in zip(r0, r1)] for r0, r1 in zip(m0, m1)]
                assert poly_eval(f, t, p) == det_mod(mt, p)


def _pattern_key(m, p):
    # the plan key of _solve_mod: the column count and each row's nonzero columns
    cols = len(m[0]) if m else 0
    return cols, tuple(tuple(j for j, x in enumerate(row) if x % p) for row in m)


def _cramer(a, b, p):
    """A^{-1} B over F_p from cofactor determinants."""
    n = len(a)
    d_inv = pow(_det_cofactor(a, p), -1, p)
    cols = len(b[0])
    x = [[0] * cols for _ in range(n)]
    for i in range(n):
        for c in range(cols):
            ai = [row[:i] + [b[r][c]] + row[i + 1:] for r, row in enumerate(a)]
            x[i][c] = _det_cofactor(ai, p) * d_inv % p
    return x


def test_plan_replay_meets_a_cancelled_pivot():
    # a second matrix of the recorded pattern whose second planned pivot
    # cancels once the first has been eliminated
    p = 101
    rng = Rng(707)
    n = 4
    arith._PLANS.clear()
    first = [[1 + rng.below(p - 1) for _ in range(n)] for _ in range(n)]
    det_mod(first, p)
    plan = arith._PLANS[_pattern_key(first, p)]
    (r1, c1), (r2, c2) = plan[:2]
    for _ in range(20):
        m = [[1 + rng.below(p - 1) for _ in range(n)] for _ in range(n)]
        # m[r2][c2] - m[r2][c1] m[r1][c2] / m[r1][c1] = 0: nonzero, same pattern
        m[r2][c2] = m[r2][c1] * m[r1][c2] * pow(m[r1][c1], -1, p) % p
        assert _pattern_key(m, p) == _pattern_key(first, p)
        b = [[rng.below(p) for _ in range(2)] for _ in range(n)]
        assert det_mod(m, p) == _det_cofactor(m, p)
        assert rank_mod(m, p) == _rank_by_minors(m, p)
        rank, det, x = _solve_mod(m, p, b)
        assert (rank, det) == (rank_mod(m, p), det_mod(m, p))
        if det:
            assert x == _cramer(m, b, p)
    assert arith._PLANS[_pattern_key(first, p)] == plan  # the plan is kept


def test_plan_replay_on_rectangular_rank_deficient_inputs():
    # the same 4 x 6 pattern at rank 4, 2 and 3: the replayed plan runs out
    # early, or is longer than the elimination, and the search takes over;
    # 13 > 6 + 1 leaves a ratio a : b that keeps every entry of a*u + b*v nonzero
    p = 13
    rng = Rng(808)

    def full_row():
        return [1 + rng.below(p - 1) for _ in range(6)]

    def combo(u, v):
        # a nonzero combination a*u + b*v, keeping the pattern full
        while True:
            a, b = 1 + rng.below(p - 1), 1 + rng.below(p - 1)
            w = [(a * x + b * y) % p for x, y in zip(u, v)]
            if all(w):
                return w

    for trial in range(60):
        arith._PLANS.clear()
        u, v, w = full_row(), full_row(), full_row()
        deficient = [u, v, combo(u, v), combo(u, v)]
        third = [u, v, w, combo(u, w)]
        generic = [full_row() for _ in range(4)]
        order = [generic, deficient, third] if trial % 2 else [deficient, third, generic]
        for m in order:
            assert _pattern_key(m, p) == (6, (tuple(range(6)),) * 4)
            assert rank_mod(m, p) == _rank_by_minors(m, p)
            assert rank_mod([row[:] for row in zip(*m)], p) == _rank_by_minors(m, p)
        assert len(arith._PLANS) == 2  # one 4 x 6 pattern and its transpose


def test_plan_cache_stays_within_its_bound():
    arith._PLANS.clear()
    limit = arith._PLAN_LIMIT
    keys = []
    for k in range(limit + 10):
        # distinct patterns: the identity of size 1 .. limit + 10
        m = [[1 if i == j else 0 for j in range(k + 1)] for i in range(k + 1)]
        assert det_mod(m, P) == 1
        keys.append(_pattern_key(m, P))
        assert len(arith._PLANS) <= limit
    assert len(arith._PLANS) == limit
    assert keys[0] not in arith._PLANS and keys[-1] in arith._PLANS
    assert list(arith._PLANS) == keys[-limit:]  # the oldest plans went first


def test_charpoly_matches_determinant_evaluation():
    rng = Rng(123)
    for n in (1, 2, 3, 5, 8):
        a = rand_matrix(rng, n)
        chi = charpoly_mod(a, P)
        assert poly_degree(chi) == n
        for _ in range(3):
            t = rng.below(P)
            ti_minus_a = [
                [((t if i == j else 0) - a[i][j]) % P for j in range(n)] for i in range(n)
            ]
            assert poly_eval(chi, t, P) == det_mod(ti_minus_a, P)


def test_det_pencil_poly_matches_pointwise():
    rng = Rng(321)
    for trial in range(8):
        n = 4
        m0 = rand_matrix(rng, n)
        m1 = rand_matrix(rng, n)
        if trial % 3 == 1:
            m1[0] = [0] * n  # M1 singular: the line has no full degree
            assert det_pencil_poly(m0, m1, P) is None
            continue
        if trial % 3 == 2:
            m0[0] = [0] * n  # a singular M0 does not matter
        f = det_pencil_poly(m0, m1, P)
        assert poly_degree(f) == n
        for t in range(n + 2):
            mt = [[(m0[i][j] + t * m1[i][j]) % P for j in range(n)] for i in range(n)]
            assert poly_eval(f, t, P) == det_mod(mt, P)


def test_det_pencil_poly_identically_singular():
    z = [[0, 0], [0, 0]]
    assert det_pencil_poly(z, z, P) is None


def test_det_pencil_poly_both_members_singular():
    # the pencil itself is invertible, but its leading member M1 is not
    rng = Rng(654)
    for n in (2, 3, 5):
        m0 = rand_matrix(rng, n)
        m1 = rand_matrix(rng, n)
        m0[0] = [0] * n
        m1[n - 1] = [0] * n
        assert det_mod(m0, P) == 0 and det_mod(m1, P) == 0
        assert det_mod(_pencil_at(m0, m1, 1), P) != 0
        assert det_pencil_poly(m0, m1, P) is None


def _action_pencils(name, seed):
    """Pencils (M0, M1) of a fixture's action matrix along three lines: a
    generic one, one whose direction A(vec1) is singular (vec1 vanishes off
    the first arrow), and one with both members singular (the coordinates
    split between vec0 and vec1 at the second arrow)."""
    q, d = builtin(name)
    lfm = action_matrix(q, d)
    rng = Rng(seed)
    total = lfm.coords.total
    v = [rng.below(P) for _ in range(total)]
    w = [rng.below(P) for _ in range(total)]
    cut = lfm.coords.offsets[1]
    head = [x if i < cut else 0 for i, x in enumerate(w)]
    tail = [x if i >= cut else 0 for i, x in enumerate(v)]
    lines = [(v, w), (v, head), (tail, head)]
    return lfm, [(lfm.evaluate(a, P), lfm.evaluate(b, P)) for a, b in lines]


def _pencil_at(m0, m1, t):
    return [[(a + t * b) % P for a, b in zip(r0, r1)] for r0, r1 in zip(m0, m1)]


def test_det_pencil_poly_action_matrices_match_interpolation():
    for name in ("e7-highroot", "star7"):
        lfm, pencils = _action_pencils(name, 77)
        n = lfm.size
        (m0, m1), m1_singular, both_singular = pencils
        assert det_mod(m1_singular[1], P) == 0 and det_mod(m1_singular[0], P) != 0
        assert det_mod(both_singular[0], P) == 0 and det_mod(both_singular[1], P) == 0
        f = det_pencil_poly(m0, m1, P)
        points = [(t, det_mod(_pencil_at(m0, m1, t), P)) for t in range(n + 1)]
        assert poly_degree(f) == n and f == interpolate(points, P), name
        assert det_pencil_poly(*m1_singular, P) is None, name
        assert det_pencil_poly(*both_singular, P) is None, name


def test_det_pencil_poly_e8_pointwise():
    lfm, pencils = _action_pencils("e8-central-sink", 78)
    m0, m1 = pencils[0]
    f = det_pencil_poly(m0, m1, P)
    assert poly_degree(f) == lfm.size == 118
    rng = Rng(79)
    for _ in range(3):
        t = rng.below(P)
        assert poly_eval(f, t, P) == det_mod(_pencil_at(m0, m1, t), P)


def test_mpoly_det_matches_exact_on_constants():
    rng = Rng(55)
    for _ in range(10):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        mp = [[mp_const(x, 1) for x in row] for row in m]
        det = mp_det(mp, 1)
        expected = int(det_exact(m))
        assert det == mp_const(expected, 1)


def test_mpoly_symbolic_two_by_two():
    x = mp_var(0, 2)
    y = mp_var(1, 2)
    m = [[x, y], [y, x]]
    det = mp_det(m, 2)
    xx = mp_mul(x, x)
    yy = mp_mul(y, y)
    assert det == {(2, 0): 1, (0, 2): -1}
    assert mp_equal_up_to_sign(det, {(0, 2): 1, (2, 0): -1})
    assert xx == {(2, 0): 1} and yy == {(0, 2): 1}


def test_field_dispatch_agrees_with_kernels():
    from qlfd.arith import det, power, random_scalar, rank, reduce

    m = [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
    assert det(m, P) == det_mod(m, P) and det(m, None) == det_exact(m) == -78
    singular = [[1, 2], [2, 4]]
    assert rank(singular, P) == rank(singular, None) == 1
    assert reduce(-3, 7) == 4 and reduce(Fraction(-3, 2), None) == Fraction(-3, 2)
    assert power(3, -2, 7) == pow(9, -1, 7) and power(3, -2, None) == Fraction(1, 9)
    # the draws of the weight and degree checks: 2 + below(p - 3) over F_p,
    # randint(2, 19) over Q, from the same stream
    assert random_scalar(Rng(5), P) == 2 + Rng(5).below(P - 3)
    assert random_scalar(Rng(5), None) == Rng(5).randint(2, 19)
    assert all(2 <= random_scalar(Rng(s), 7) <= 5 for s in range(50))
