from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from qlfd import arith
from qlfd.arith import (
    DEFAULT_PRIME,
    PrimeField,
    Rng,
    derive_seed,
    det_exact,
    det_mod,
    det_pencil_poly,
    is_prime,
    poly_degree,
    poly_deriv,
    poly_gcd,
    poly_mul,
    rank_exact,
    rank_mod,
)
from qlfd.fixtures import builtin, builtin_names
from qlfd.repmatrix import action_matrix, defect_matrix, random_representation

from mpoly import (
    _lu_solve,
    _solve_mod,
    charpoly_mod,
    interpolate,
    mp_const,
    mp_det,
    mp_equal_up_to_sign,
    mp_mul,
    mp_var,
    poly_eval,
    search_all_rows,
)

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
    # the plan key of _solve_mod: the column count, then the columns of each
    # row's nonzero entries as given, each row ended by -1 (p is not needed)
    cols = len(m[0]) if m else 0
    return (cols, *(j for row in m for j in [*(j for j, x in enumerate(row) if x), -1]))


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
            assert _pattern_key(m, p) == (6, *[0, 1, 2, 3, 4, 5, -1] * 4)
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


def _sparse_pattern(rng, rows, cols):
    # each row holds at least one position; about half the positions are set
    pattern = [[bool(rng.below(2)) for _ in range(cols)] for _ in range(rows)]
    for row in pattern:
        row[rng.below(cols)] = True
    return pattern


def _member(rng, pattern, p):
    # values in [1, p) on the pattern
    return [[1 + rng.below(p - 1) if on else 0 for on in row] for row in pattern]


def _check_against_oracles(m, p, b=None):
    rank, det, x = _solve_mod(m, p, b)
    assert rank == _rank_by_minors(m, p)
    if len(m) == len(m[0]):
        assert det == _det_cofactor(m, p)
        if b is not None:
            assert x == (_cramer(m, b, p) if det else None)
    return rank, det, x


def _count_searches(monkeypatch):
    calls = []
    real = arith._search_mod

    def spy(a, p, b):
        calls.append(len(a))
        return real(a, p, b)

    monkeypatch.setattr(arith, "_search_mod", spy)
    return calls


@pytest.mark.parametrize("p", [13, 101, P])
def test_schedule_matches_oracles_on_random_sparse_patterns(p, monkeypatch):
    rng = Rng(1010 + p % 1000)
    searches = _count_searches(monkeypatch)
    for trial in range(30):
        arith._PLANS.clear()
        n = 1 + trial % 5
        cols = n if trial % 3 else n + 1
        pattern = _sparse_pattern(rng, n, cols)
        first = _member(rng, pattern, p)
        _check_against_oracles(first, p)
        plan = arith._PLANS[_pattern_key(first, p)]
        assert plan.schedule is None
        full = len(plan) == n
        for _ in range(4):
            m = _member(rng, pattern, p)
            b = [[rng.below(p) for _ in range(2)] for _ in range(n)] if cols == n else None
            before = len(searches)
            _check_against_oracles(m, p, b)
            assert plan.schedule is not None
            assert arith._PLANS[_pattern_key(m, p)] is plan  # the plan is kept
            if full and p == P:
                # at small p a planned pivot may cancel even at full rank
                assert len(searches) == before  # the schedule alone


def test_schedule_meets_a_pivot_that_cancels_mid_schedule(monkeypatch):
    # the second planned pivot cancels once the first has been eliminated
    p = 101
    rng = Rng(1111)
    n = 5
    arith._PLANS.clear()
    searches = _count_searches(monkeypatch)
    first = [[1 + rng.below(p - 1) for _ in range(n)] for _ in range(n)]
    _check_against_oracles(first, p)
    plan = arith._PLANS[_pattern_key(first, p)]
    (r1, c1), (r2, c2) = plan[:2]
    generic = [[1 + rng.below(p - 1) for _ in range(n)] for _ in range(n)]
    _check_against_oracles(generic, p)
    assert plan.schedule is not None and len(searches) == 1
    for _ in range(10):
        m = [[1 + rng.below(p - 1) for _ in range(n)] for _ in range(n)]
        m[r2][c2] = m[r2][c1] * m[r1][c2] * pow(m[r1][c1], -1, p) % p
        assert _pattern_key(m, p) == _pattern_key(first, p)
        b = [[rng.below(p) for _ in range(3)] for _ in range(n)]
        before = len(searches)
        _check_against_oracles(m, p, b)
        assert len(searches) == before + 1  # the search ran from the original
    assert arith._PLANS[_pattern_key(first, p)] is plan


def test_schedule_on_singular_members_of_a_full_rank_pattern(monkeypatch):
    # a full 5 x 5 pattern planned at full rank, then members of rank 4, 3
    # and 1 whose entries are all nonzero: the schedule fails, the search
    # gives the rank, and the plan stays
    p = 13
    rng = Rng(1212)
    n = 5

    def nonzero_row():
        return [1 + rng.below(p - 1) for _ in range(n)]

    def combo(rows):
        # a random combination of the rows, with every entry nonzero
        while True:
            w = [0] * n
            for row in rows:
                c = 1 + rng.below(p - 1)
                w = [(x + c * y) % p for x, y in zip(w, row)]
            if all(w):
                return w

    arith._PLANS.clear()
    searches = _count_searches(monkeypatch)
    first = [nonzero_row() for _ in range(n)]
    assert _check_against_oracles(first, p)[0] == n
    plan = arith._PLANS[_pattern_key(first, p)]
    for rank in (4, 3, 1, 5):
        basis = [nonzero_row() for _ in range(rank)]
        m = basis + [combo(basis) for _ in range(n - rank)]
        before = len(searches)
        assert _check_against_oracles(m, p, [nonzero_row() for _ in range(n)])[0] == rank
        if rank < n:
            assert len(searches) == before + 1
    assert arith._PLANS[_pattern_key(first, p)] is plan and plan.schedule is not None


def test_schedule_on_unreduced_and_negative_entries():
    # the same positions hold values in [-3p, 3p): negative, above p, and
    # nonzero multiples of p, which the schedule sees as zero mod p
    rng = Rng(1313)
    for p in (13, 101):
        arith._PLANS.clear()
        pattern = _sparse_pattern(rng, 5, 5)
        for _ in range(30):
            m = [[rng.randint(-3 * p, 3 * p - 1) or p if on else 0 for on in row]
                 for row in pattern]
            b = [[rng.randint(-3 * p, 3 * p - 1) for _ in range(2)] for _ in range(5)]
            rank, det, x = _check_against_oracles(m, p, b)
            reduced = [[v % p for v in row] for row in m]
            assert (rank, det, x) == _solve_mod(reduced, p, [[v % p for v in row] for row in b])
        assert arith._PLANS[_pattern_key(m, p)].schedule is not None


def test_schedule_solves_pencil_members():
    # A^{-1} B through a compiled schedule, on E7 action matrices that share
    # one pattern, against the product A X = B
    lfm = action_matrix(*builtin("e7-highroot"))
    rng = Rng(1414)
    arith._PLANS.clear()
    mats = [lfm.evaluate([rng.below(P) for _ in range(lfm.coords.total)], P) for _ in range(3)]
    for a, b in zip(mats, mats[1:] + mats[:1]):
        rank, det, x = _solve_mod(a, P, b)
        assert rank == len(a) and det == det_mod(a, P)
        ax = [[sum(map(mul, row, col)) % P for col in zip(*x)] for row in a]
        assert ax == b
    assert arith._PLANS[_pattern_key(mats[0], P)].schedule is not None


def test_patterns_seen_once_compile_nothing():
    arith._PLANS.clear()
    for k in range(1, 9):
        m = [[1 if i == j or j == i + 1 else 0 for j in range(k)] for i in range(k)]
        assert det_mod(m, P) == 1
    assert len(arith._PLANS) == 8
    assert all(plan.schedule is None for plan in arith._PLANS.values())
    det_mod([[2, 3], [0, 5]], P)  # the 2 x 2 pattern again
    assert [len(plan) for plan in arith._PLANS.values() if plan.schedule] == [2]


def test_plans_and_schedules_share_the_cache_bound():
    arith._PLANS.clear()
    limit = arith._PLAN_LIMIT
    keys = []
    for k in range(limit + 10):
        m = [[2 if i == j else 0 for j in range(k + 1)] for i in range(k + 1)]
        m[0][k] += 1  # upper triangular: det 2^(k+1), or 3 when k = 0
        # the first call keeps a plan, the second compiles and runs its schedule
        assert det_mod(m, P) == det_mod(m, P) == (pow(2, k + 1, P) if k else 3)
        keys.append(_pattern_key(m, P))
        assert len(arith._PLANS) <= limit
    assert list(arith._PLANS) == keys[-limit:]  # the oldest went first, schedule and all
    assert all(plan.schedule is not None for plan in arith._PLANS.values())


def _schedule_updates(a, pivots):
    # the entry updates of the schedule compiled from a pivot sequence: the
    # Markowitz costs (r - 1)(c - 1) of its steps after symbolic fill
    steps, _ = arith._compile_schedule(arith._Plan(pivots), a)
    return sum(len(cols) * len(targets) for _, _, cols, targets in steps)


def test_restricted_search_matches_the_exhaustive_oracle(monkeypatch):
    # on every builtin's action matrix A(v) and its brick-probe matrix
    # M(V, V), whose rank is below its column count: the same rank,
    # determinant and solves as the search over every active row, and
    # schedules at most 10% costlier over the whole set
    restricted = arith._search_mod
    rng = Rng(1818)
    updates = {restricted: 0, search_all_rows: 0}
    deficient = 0
    for name in builtin_names():
        q, d = builtin(name)
        lfm = action_matrix(q, d)
        vec = [rng.below(P) for _ in range(lfm.coords.total)]
        v = random_representation(q, d, P, 1818)
        for a in (lfm.evaluate(vec, P), defect_matrix(v, v)):
            w = [rng.below(P) for _ in a]
            results = []
            for search in (restricted, search_all_rows):
                updates[search] += _schedule_updates(a, search(a, P, False)[1])
                arith._PLANS.clear()
                monkeypatch.setattr(arith, "_search_mod", search)
                rank, det, lu = arith._factor_mod(a, P, True)
                results.append((rank, det, lu and _lu_solve(lu, w, P)))
            assert results[0] == results[1], name
            deficient += results[0][0] < len(a[0])
    assert deficient >= 28  # every M(V, V), and A(v) where the discriminant is 0
    assert updates[restricted] <= 1.1 * updates[search_all_rows]


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


def _pencil_at(m0, m1, t, p=P):
    return [[(a + t * b) % p for a, b in zip(r0, r1)] for r0, r1 in zip(m0, m1)]


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


@pytest.mark.parametrize("p", [5, 7, 13])
def test_det_pencil_poly_operator_matches_pointwise_at_small_primes(p):
    # n < p, so the p values over F_p determine f.  M0 = M1 X with X a
    # multiple of I (the Krylov space of e_0 is a line: a restart at every
    # step), the shift e_j -> e_{j+2} (X e_0 = e_2: a swap at the first
    # step), or random, where small p makes restarts and swaps common
    rng = Rng(1800 + p)
    for trial in range(150):
        n = 1 + trial % (p - 1)
        kind = trial % 3
        m1 = [[rng.below(p) if rng.below(3) else 0 for _ in range(n)] for _ in range(n)]
        if kind == 0:
            c = rng.below(p)
            x = [[c if i == j else 0 for j in range(n)] for i in range(n)]
        elif kind == 1:
            x = [[1 if i == (j + 2) % n else 0 for j in range(n)] for i in range(n)]
        else:
            x = [[rng.below(p) if rng.below(2) else 0 for _ in range(n)] for _ in range(n)]
        m0 = [[sum(map(mul, row, col)) % p for col in zip(*x)] for row in m1]
        f = det_pencil_poly(m0, m1, p)
        if det_mod(m1, p) == 0:
            assert f is None
            continue
        assert poly_degree(f) == n
        for t in range(p):
            assert poly_eval(f, t, p) == det_mod(_pencil_at(m0, m1, t, p), p)


def test_det_pencil_poly_through_a_compiled_schedule(monkeypatch):
    # q3's lines share one sparsity pattern: the first M1 is factored by the
    # search, the second compiles its plan, the third runs the schedule
    lfm = action_matrix(*builtin("q3"))
    n = lfm.size
    rng = Rng(1919)
    arith._PLANS.clear()
    searches = _count_searches(monkeypatch)
    pencils = []
    for _ in range(3):
        m0, m1 = (lfm.evaluate([rng.below(P) for _ in range(lfm.coords.total)], P)
                  for _ in range(2))
        pencils.append((m0, m1, det_pencil_poly(m0, m1, P)))
    assert searches == [n]
    assert arith._PLANS[_pattern_key(m1, P)].schedule is not None
    for m0, m1, f in pencils:
        points = [(t, det_mod(_pencil_at(m0, m1, t), P)) for t in range(n + 1)]
        assert poly_degree(f) == n and f == interpolate(points, P)


def _pencil_by_interpolation(m0, m1):
    """det(M0 + t M1) over Q as an independent oracle: n + 1 Bareiss
    determinants and interpolation, None unless the degree is full."""
    n = len(m0)
    points = [
        (t, det_exact([[a + t * b for a, b in zip(r0, r1)] for r0, r1 in zip(m0, m1)]))
        for t in range(n + 1)
    ]
    f = interpolate(points)
    return f if poly_degree(f) == n else None


def _int_matrix(rng, n, r=99):
    return [[rng.randint(-r, r) for _ in range(n)] for _ in range(n)]


def test_det_pencil_poly_over_q_matches_interpolation():
    rng = Rng(1515)
    for trial in range(80):
        n = 1 + trial % 10
        m0, m1 = _int_matrix(rng, n), _int_matrix(rng, n)
        if trial % 4 == 1:
            m0[0] = [0] * n  # a singular M0 does not matter
        f = det_pencil_poly(m0, m1, None)
        assert f == _pencil_by_interpolation(m0, m1)
        # a 1 x 1 M1 may be [0]
        assert f[-1] == det_exact(m1) if f else det_exact(m1) == 0


def test_det_pencil_poly_over_q_singular_m1():
    rng = Rng(1616)
    for n in range(2, 8):
        m0, m1 = _int_matrix(rng, n), _int_matrix(rng, n)
        m1[-1] = [a - 2 * b for a, b in zip(m1[0], m1[1 % (n - 1)])]
        assert det_exact(m1) == 0 and det_exact(m0) != 0
        assert det_pencil_poly(m0, m1, None) is None
        assert _pencil_by_interpolation(m0, m1) is None


def test_det_pencil_poly_over_q_skips_primes_dividing_det_m1(monkeypatch):
    # det M1 a multiple of the first CRT prime, then of the first two
    rng = Rng(1717)
    used = []
    real = arith.det_pencil_poly

    def spy(m0, m1, p):
        used.append(p)
        return real(m0, m1, p)

    monkeypatch.setattr(arith, "det_pencil_poly", spy)
    first, second = arith._crt_prime(0), arith._crt_prime(1)
    for factors in ((first,), (first, second), (first, 3)):
        n = 6
        diag = [*factors] + [rng.randint(1, 99) for _ in range(n - len(factors))]
        upper = [[diag[i] if i == j else rng.randint(-99, 99) if j > i else 0
                  for j in range(n)] for i in range(n)]
        m1 = [upper[i] for i in (3, 0, 5, 1, 4, 2)]
        m0 = _int_matrix(rng, n)
        assert det_exact(m1) % first == 0 and real(m0, m1, first) is None
        used.clear()
        f = real(m0, m1, None)
        assert f == _pencil_by_interpolation(m0, m1) and poly_degree(f) == n
        skipped = [q for q in factors if q in (first, second)]
        assert used and not set(skipped) & set(used)
        assert used == [arith._crt_prime(i) for i in range(len(skipped), len(skipped) + len(used))]


def test_det_pencil_poly_over_q_at_the_exact_mode_size():
    # exact mode admits dim Rep <= 24; entries of +-99 make the largest bound
    rng = Rng(1818)
    n = 24
    m0, m1 = ([[rng.below(2) * 198 - 99 for _ in range(n)] for _ in range(n)] for _ in range(2))
    f = det_pencil_poly(m0, m1, None)
    assert f == _pencil_by_interpolation(m0, m1) and poly_degree(f) == n


def test_crt_primes_are_the_primes_below_the_default_prime():
    # the listed primes are every prime stepping down from DEFAULT_PRIME, and
    # the search past the list goes on to the next one
    expected, q = [], DEFAULT_PRIME
    while len(expected) <= len(arith._CRT_PRIMES):
        if is_prime(q):
            expected.append(q)
        q -= 2
    assert arith._CRT_PRIMES == tuple(expected[:-1])
    assert [arith._crt_prime(i) for i in range(len(expected))] == expected


def test_det_pencil_poly_runs_the_hessenberg_pass_on_live_columns(monkeypatch):
    # X = M1^{-1} M0 vanishes on the zero columns of M0, so the pencil is
    # t^(n - m) times the charpoly of the m x m live block of X
    sizes = []
    real = arith._charpoly_op
    monkeypatch.setattr(arith, "_charpoly_op", lambda apply, n, p: sizes.append(n) or real(apply, n, p))
    rng = Rng(2024)
    for trial in range(40):
        n = 1 + trial % 9
        dead = {j for j in range(n) if rng.below(2)}
        exact = trial % 2
        if exact:
            m0, m1 = _int_matrix(rng, n), _int_matrix(rng, n)
        else:
            m0, m1 = rand_matrix(rng, n), rand_matrix(rng, n)
        for row in m0:
            for j in dead:
                row[j] = 0
        sizes.clear()
        if exact:
            f = det_pencil_poly(m0, m1, None)
            assert f == _pencil_by_interpolation(m0, m1)
        else:
            f = det_pencil_poly(m0, m1, P)
            points = [(t, det_mod(_pencil_at(m0, m1, t), P)) for t in range(n + 1)]
            assert f == interpolate(points, P)
        assert poly_degree(f) == n and not any(f[:len(dead)])
        assert sizes and set(sizes) == {n - len(dead)}


def _operator_oracle(m0, lu, u, p):
    """X[live, live] u for X = M1^{-1} M0, by one full solve of M0 u."""
    live = sorted({j for row in m0 for j, x in enumerate(row) if x})
    w = [sum(row[j] * x for j, x in zip(live, u)) for row in m0]
    return list(map(_lu_solve(lu, w, p).__getitem__, live))


def _sparse_invertible(rng, n, p):
    while True:
        m1 = [[rng.below(p) if not rng.below(3) else 0 for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m1[i][(i * 5 + 3) % n] = 1 + rng.below(p - 1)
        if det_mod(m1, p):
            return m1


@pytest.mark.parametrize("p", [13, 101, P])
def test_compiled_operator_matches_the_lu_solve_oracle(p):
    # random sparse pencils on a random live set of columns: the compiled
    # operator against full solves through the factors of M1, and the
    # pencil against interpolation; some M0 blocks are singular (a live
    # column twice another, or a zero row), and most backward closures are
    # larger than the live set
    rng = Rng(1900 + p % 1000)
    wider = singular = 0
    for trial in range(60):
        n = 1 + trial % 10
        m1 = _sparse_invertible(rng, n, p)
        live = [j for j in range(n) if rng.below(3)]
        m0 = [[rng.below(p) if j in live and rng.below(2) else 0 for j in range(n)]
              for _ in range(n)]
        if trial % 3 == 1 and len(live) > 1:
            a, b = live[:2]
            for row in m0:
                row[b] = 2 * row[a] % p
        if trial % 3 == 2:
            m0[0] = [0] * n
        _, _, lu = arith._factor_mod(m1, p, True)
        op = arith._compile_operator(m0, lu, p)
        m = op[0]
        assert m == len({j for row in m0 for j, x in enumerate(row) if x})
        for _ in range(3):
            u = [rng.below(p) for _ in range(m)]
            assert arith._run_operator(op, u, p) == _operator_oracle(m0, lu, u, p)
        wider += op[1] > m
        live_block = [[row[j] for j in range(n) if any(r[j] for r in m0)] for row in m0]
        singular += m > 0 and arith.rank_mod(live_block, p) < m
        f = det_pencil_poly(m0, m1, p)
        points = [(t, det_mod(_pencil_at(m0, m1, t, p), p)) for t in range(n + 1)]
        assert f == interpolate(points, p) and poly_degree(f) == n
    assert wider >= 15 and singular >= 15


def test_backward_pass_runs_over_the_live_closure_only():
    # a star7 handle pencil: n = 49, 7 live columns of M(0, V0), which read
    # 6 more columns through U; the backward pass takes 13 steps, not 49
    q, d = builtin("star7")
    e = (0, 1, 1, 1, 1, 1, 1, 1, 6)
    w = random_representation(q, e, P, 2001)
    m0 = defect_matrix(w, random_representation(q, d, P, 2002), zero_w=True)
    m1 = defect_matrix(w, random_representation(q, d, P, 2003))
    _, _, lu = arith._factor_mod(m1, P, True)
    m, size, forward, backward = arith._compile_operator(m0, lu, P)
    assert (len(m0), m, size, len(forward), len(backward)) == (49, 7, 13, 49, 13)
    rng = Rng(2004)
    for _ in range(3):
        u = [rng.below(P) for _ in range(m)]
        assert arith._run_operator((m, size, forward, backward), u, P) == _operator_oracle(m0, lu, u, P)


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
    from qlfd.arith import det, power, rank, reduce

    m = [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
    assert det(m, P) == det_mod(m, P) and det(m, None) == det_exact(m) == -78
    singular = [[1, 2], [2, 4]]
    assert rank(singular, P) == rank(singular, None) == 1
    assert reduce(-3, 7) == 4 and reduce(Fraction(-3, 2), None) == Fraction(-3, 2)
    assert power(3, -2, 7) == pow(9, -1, 7) and power(3, -2, None) == Fraction(1, 9)
