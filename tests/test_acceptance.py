"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  All tolerances are exact (integer/boolean identities); the
probabilistic checks run at the default 62-bit prime, and the factorization
identity, checked on one random line, reports its Schwartz-Zippel bound
2 dim Rep / p, asserted below 2**-40 in criterion 11.
"""

import time

from qlfd.arith import DEFAULT_PRIME, Rng, det_mod
from qlfd.certify import certify
from qlfd.fixtures import block_handles, builtin, builtin_names
from qlfd.quiver import build_quiver, euler_inverse, euler_matrix, euler_form, opposite_quiver, tits_form
from qlfd.repmatrix import action_matrix, hom_ext_dims, random_representation
from qlfd.roots import positive_roots
from qlfd.semiinv import sample_generic_witness

from conftest import certified
from mpoly import mp_add, mp_const, mp_det, mp_equal_up_to_sign, mp_mul, mp_neg, mp_var, mpoly_matrix

P = DEFAULT_PRIME

def fixture_report(name):
    return certified(name)


def _passed(criterion, label, t0):
    print(f"criterion {criterion:>2} ({label}): PASS ({time.monotonic() - t0:.2f}s)")


# published component table for e7-highroot: root -> (deg, -weight)
E7_TABLE = {
    (1, 1, 1, 1, 1, 0, 0): (6, (1, 0, 0, -1, 1, 0, 0)),
    (0, 1, 1, 1, 1, 1, 0): (8, (0, 1, 0, -1, 0, 1, 0)),
    (0, 0, 0, 1, 1, 1, 1): (6, (0, 0, 0, -1, 0, 1, 1)),
    (0, 1, 1, 1, 0, 0, 1): (6, (0, 1, 0, -1, 0, 0, 1)),
    (0, 0, 1, 1, 1, 0, 1): (8, (0, 0, 1, -2, 1, 0, 1)),
    (1, 1, 2, 2, 1, 1, 1): (12, (1, 0, 1, -2, 0, 1, 1)),
}
E7_DELTA_MINUS_WEIGHT = (2, 2, 2, -8, 2, 3, 4)

# published component table for e8-central-sink: root -> (deg, -weight)
E8_TABLE = {
    (1, 1, 1, 1, 1, 0, 0, 0): (12, (1, 0, -1, 0, 1, 0, 0, 0)),
    (0, 0, 1, 1, 1, 1, 0, 1): (12, (0, 0, -1, 0, 0, 1, 0, 1)),
    (0, 1, 1, 1, 1, 1, 1, 0): (12, (0, 1, -1, 0, 0, 0, 1, 0)),
    (0, 1, 1, 1, 0, 0, 0, 1): (12, (0, 1, -2, 1, 0, 0, 0, 1)),
    (1, 2, 2, 1, 1, 1, 0, 1): (20, (1, 1, -2, 0, 0, 1, 0, 1)),
    (1, 1, 2, 2, 1, 1, 1, 1): (20, (1, 0, -2, 1, 0, 0, 1, 1)),
    (1, 2, 3, 2, 2, 1, 1, 2): (30, (1, 1, -3, 0, 1, 0, 1, 2)),
}
E8_DELTA_WEIGHT = (-4, -4, 12, -2, -2, -2, -3, -6)


def _blocks_match_auto(name, roots, points=10, seed=7001):
    q, d = builtin(name)
    handles = block_handles(name)
    rng = Rng(seed)
    for root in roots:
        bh = handles[root]
        # a witness drawn as the line certificate draws it, on a random line
        v0, v1 = (random_representation(q, d, P, seed=rng.split(2, i, *root).seed) for i in range(2))
        ah, _ = sample_generic_witness(root, v0, v1, seed=rng.split(0, *root).seed)
        ratios = set()
        for i in range(points):
            v = random_representation(q, d, P, seed=rng.split(1, i, *root).seed)
            a, b = ah.evaluate(v), bh.evaluate(v)
            assert a != 0 and b != 0, (name, root)
            ratios.add(a * pow(b, -1, P) % P)
        assert len(ratios) == 1, (name, root)


def test_criterion_01_root_counts():
    t0 = time.monotonic()
    expectations = [("a3", 6), ("e6-q1", 36), ("e7-highroot", 63), ("e8-central-sink", 120)]
    for name, count in expectations:
        q, _ = builtin(name)
        assert len(positive_roots(q)) == count, name
    assert time.monotonic() - t0 < 1.0
    _passed(1, "root counts", t0)


def test_criterion_02_normal_crossing_symbolic():
    t0 = time.monotonic()
    for n in range(2, 7):
        q, d = builtin(f"a{n}")
        lfm = action_matrix(q, d)
        nvars = lfm.coords.total
        det = mp_det(mpoly_matrix(lfm), nvars)
        prod = mp_const(1, nvars)
        for k in range(nvars):
            prod = mp_mul(prod, mp_var(k, nvars))
        assert mp_equal_up_to_sign(det, prod), f"a{n}"
    _passed(2, "normal crossing, exact", t0)


def test_criterion_03_star_quivers():
    t0 = time.monotonic()
    # n = 2: exact symbolic factorization into the three maximal minors
    q, d = builtin("star2")
    lfm = action_matrix(q, d)
    nvars = lfm.coords.total
    det = mp_det(mpoly_matrix(lfm), nvars)

    def entry(a, r):
        return mp_var(lfm.coords.index(a, r, 0), nvars)

    def minor(i, j):
        return mp_add(mp_mul(entry(i, 0), entry(j, 1)), mp_neg(mp_mul(entry(j, 0), entry(i, 1))))

    prod = mp_mul(mp_mul(minor(0, 1), minor(0, 2)), minor(1, 2))
    assert mp_equal_up_to_sign(det, prod)
    # n = 3, 4: modular certification, the identity on one random line
    for n in (3, 4):
        rep = fixture_report(f"star{n}")
        assert rep.verdict == "linear-free-divisor"
        assert rep.dim_rep == n * (n + 1)
        assert rep.stats.unit_ratio not in (None, 0)
    assert time.monotonic() - t0 < 5.0
    _passed(3, "star quivers", t0)


def test_criterion_04_tilde_d4_cases():
    t0 = time.monotonic()
    rep_i = fixture_report("tilde-d4-i")
    assert rep_i.verdict == "linear-free-divisor"
    rep_ii = fixture_report("tilde-d4-ii")
    assert rep_ii.verdict == "not-reduced"
    assert sorted(c.multiplicity for c in rep_ii.components) == [1, 1, 1, 2]
    assert rep_ii.stats.lines_used == 1
    rep_iv = fixture_report("tilde-d4-iv")
    assert rep_iv.verdict == "inconclusive" and "not a Schur root" in rep_iv.reason
    assert rep_iv.stats.brick_endomorphism_dim >= 2
    assert time.monotonic() - t0 < 5.0
    _passed(4, "tilde-D4 cases", t0)


def test_criterion_05_dn_series():
    t0 = time.monotonic()
    for n in range(4, 9):
        tn = time.monotonic()
        rep = fixture_report(f"d{n}-prop")
        assert rep.verdict == "linear-free-divisor", n
        assert rep.dim_rep == 4 * n - 10, n
        expected = sorted([2] * (n - 3) + [n - 2, n - 2])
        assert sorted(c.degree for c in rep.components) == expected, n
        assert all(c.multiplicity == 1 for c in rep.components)
        assert time.monotonic() - tn < 10.0, n
    _passed(5, "D_n series", t0)


def test_criterion_06_e6_both_orientations():
    t0 = time.monotonic()
    for name in ("e6-q1", "e6-q2"):
        rep = fixture_report(name)
        assert rep.verdict == "linear-free-divisor", name
        degs = sorted(c.degree for c in rep.components)
        assert degs == [4, 4, 4, 4, 6], name
        assert sum(degs) == 22 == rep.dim_rep, name
    assert time.monotonic() - t0 < 30.0
    _passed(6, "E6 both orientations", t0)


def test_criterion_07_e7_table():
    t0 = time.monotonic()
    rep = fixture_report("e7-highroot")
    assert rep.verdict == "linear-free-divisor"
    assert rep.dim_rep == 46
    by_root = {c.root: c for c in rep.components}
    assert set(by_root) == set(E7_TABLE)
    for root, (deg, minus_w) in E7_TABLE.items():
        c = by_root[root]
        assert c.degree == deg, root
        assert tuple(-x for x in c.weight) == minus_w, root
        assert c.multiplicity == 1
    assert tuple(-x for x in rep.disc_weight) == E7_DELTA_MINUS_WEIGHT
    assert rep.stats.unit_ratio not in (None, 0)
    _blocks_match_auto(
        "e7-highroot",
        [(0, 0, 1, 1, 1, 0, 1), (1, 1, 2, 2, 1, 1, 1)],
        points=10,
    )
    assert time.monotonic() - t0 < 120.0
    _passed(7, "E7 table", t0)


def test_criterion_08_e8_table():
    t0 = time.monotonic()
    rep = fixture_report("e8-central-sink")
    assert rep.verdict == "linear-free-divisor"
    assert rep.dim_rep == 118
    by_root = {c.root: c for c in rep.components}
    assert set(by_root) == set(E8_TABLE)
    for root, (deg, minus_w) in E8_TABLE.items():
        c = by_root[root]
        assert c.degree == deg, root
        assert tuple(-x for x in c.weight) == minus_w, root
        assert c.multiplicity == 1
    assert sum(c.degree for c in rep.components) == 118
    assert rep.disc_weight == E8_DELTA_WEIGHT
    assert rep.stats.unit_ratio not in (None, 0)
    _blocks_match_auto(
        "e8-central-sink",
        [
            (0, 1, 1, 1, 0, 0, 0, 1),
            (1, 2, 2, 1, 1, 1, 0, 1),
            (1, 1, 2, 2, 1, 1, 1, 1),
            (1, 2, 3, 2, 2, 1, 1, 2),
        ],
        points=10,
    )
    assert time.monotonic() - t0 < 600.0
    _passed(8, "E8 table", t0)


def test_criterion_09_node_splitting_series():
    t0 = time.monotonic()
    rep1 = fixture_report("q1")
    assert rep1.verdict == "linear-free-divisor" and rep1.dim_rep == 20
    rep2 = fixture_report("q2")
    assert rep2.verdict == "linear-free-divisor"
    assert rep2.dim_rep == 36
    assert sum(c.degree * c.multiplicity for c in rep2.components) == 36
    rep3 = fixture_report("q3")
    assert rep3.verdict == "not-reduced"
    doubled = [c for c in rep3.components if c.multiplicity == 2]
    assert len(doubled) == 1
    assert doubled[0].degree == 4  # the connecting-arrow determinant
    assert doubled[0].root == (0, 0, 0, 0, 0, 0, 1)
    assert sum(c.degree for c in rep3.components) == 32  # reduced degree
    assert time.monotonic() - t0 < 30.0
    _passed(9, "node-splitting series", t0)


def test_criterion_10a_euler_form_rank_nullity():
    t0 = time.monotonic()
    rng = Rng(1010)
    pool = [builtin(n)[0] for n in ["a3", "a5", "d4-prop", "e6-q2", "star3", "tilde-d4-iii"]]
    for trial in range(500):
        q = pool[rng.below(len(pool))]
        e = [rng.randint(0, 3) for _ in range(q.node_count)]
        d = [rng.randint(0, 3) for _ in range(q.node_count)]
        w = random_representation(q, e, P, seed=rng.split(trial, 0).seed)
        v = random_representation(q, d, P, seed=rng.split(trial, 1).seed)
        hom, ext = hom_ext_dims(w, v)
        assert hom - ext == euler_form(q, e, d)
    _passed("10a", "Euler form = dim Hom - dim Ext", t0)


def test_criterion_10b_component_weights_orthogonal_to_d():
    t0 = time.monotonic()
    names = [
        "a3", "a5", "d4-prop", "d6-prop", "star2", "star3", "star4",
        "e6-q1", "e6-q2", "e7-highroot", "e8-central-sink",
        "tilde-d4-i", "tilde-d4-ii", "q1", "q2", "q3",
    ]
    for name in names:
        rep = fixture_report(name)
        for c in rep.components:
            assert sum(w * x for w, x in zip(c.weight, rep.dims)) == 0, name
    _passed("10b", "weight . d = 0", t0)


def test_criterion_10c_euler_inverse_identity():
    t0 = time.monotonic()
    for name in builtin_names():
        q, _ = builtin(name)
        e = euler_matrix(q)
        inv = euler_inverse(q)
        n = q.node_count
        for i in range(n):
            for j in range(n):
                s = sum(e[i][k] * inv[k][j] for k in range(n))
                assert s == (1 if i == j else 0), name
    _passed("10c", "Euler inverse identity", t0)


def test_criterion_10d_tits_orientation_invariance():
    t0 = time.monotonic()
    rng = Rng(1044)
    q, _ = builtin("e8-central-sink")
    for _ in range(100):
        mask = rng.below(1 << q.arrow_count)
        arrows = [
            (a.name, a.head, a.tail) if (mask >> i) & 1 else (a.name, a.tail, a.head)
            for i, a in enumerate(q.arrows)
        ]
        flipped = build_quiver(q.nodes, arrows, allow_cycles=True)
        v = [rng.randint(0, 6) for _ in range(q.node_count)]
        assert tits_form(flipped, v) == tits_form(q, v)
    _passed("10d", "Tits orientation invariance", t0)


def test_criterion_10e_dropped_scalar_independence():
    t0 = time.monotonic()
    for name, drops in [("a3", ("1", "2")), ("e6-q1", ("1", "4"))]:
        q, d = builtin(name)
        lfm1 = action_matrix(q, d, drop_node=drops[0])
        lfm2 = action_matrix(q, d, drop_node=drops[1])
        rng = Rng(1055)
        ratios = set()
        for i in range(10):
            vec = [rng.below(P) for _ in range(lfm1.coords.total)]
            d1 = det_mod(lfm1.evaluate(vec, P), P)
            d2 = det_mod(lfm2.evaluate(vec, P), P)
            assert d2 != 0
            ratios.add(d1 * pow(d2, -1, P) % P)
        assert len(ratios) == 1 and 0 not in ratios, name
    _passed("10e", "dropped-scalar independence", t0)


def test_criterion_10f_opposite_quiver_invariance():
    t0 = time.monotonic()
    for name in ["a3", "d4-prop", "e6-q1"]:
        q, d = builtin(name)
        rep = fixture_report(name)
        opp = certify(opposite_quiver(q), d)
        assert opp.verdict == rep.verdict == "linear-free-divisor", name
        assert sorted(c.degree for c in opp.components) == sorted(
            c.degree for c in rep.components
        ), name
    _passed("10f", "opposite-quiver invariance", t0)


def test_criterion_11_false_accept_budget():
    t0 = time.monotonic()
    names = [
        "star3", "star4", "tilde-d4-i", "tilde-d4-ii",
        "d4-prop", "d5-prop", "d6-prop", "d7-prop", "d8-prop",
        "e6-q1", "e6-q2", "e7-highroot", "e8-central-sink", "q1", "q2", "q3",
    ]
    for name in names:
        rep = fixture_report(name)
        assert rep.definitive, name
        bound = rep.stats.ratio_point_bound_log2
        assert bound is not None, name
        assert bound < -40.0, (name, bound)
        assert rep.stats.prime.bit_length() == 62
    _passed(11, "false-accept budget", t0)
