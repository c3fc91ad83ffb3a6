import pytest

from qlfd.arith import DEFAULT_PRIME, Rng, det_mod, power, reduce
from qlfd.fixtures import builtin
from qlfd.quiver import build_quiver, euler_form
from qlfd.repmatrix import (
    Representation,
    action_matrix,
    defect_matrix,
    hom_ext_dims,
    random_representation,
)

from mpoly import (
    apply_defect,
    direct_sum,
    discriminant_value,
    extension_middle_term,
    mp_det,
    mp_mul,
    mp_var,
    mpoly_matrix,
    scale_first_coordinates,
    zero_representation,
)

P = DEFAULT_PRIME


def test_random_representation_deterministic():
    q, d = builtin("a3")
    v1 = random_representation(q, d, P, seed=9)
    v2 = random_representation(q, d, P, seed=9)
    assert v1.mats == v2.mats
    v3 = random_representation(q, d, P, seed=10)
    assert v1.mats != v3.mats


def test_random_representation_zero_node():
    q, _ = builtin("a3")
    v = random_representation(q, (1, 0, 2), P, seed=4)
    assert v.mats[0] == []  # arrow into the zero node has no rows
    assert v.mats[1] == [[], []]  # arrow out of it has no columns


def test_defect_matrix_simple_root():
    q, _ = builtin("a3")
    w = random_representation(q, (1, 0, 0), P, seed=1)
    v = random_representation(q, (1, 1, 1), P, seed=2)
    m = defect_matrix(w, v)
    assert m == [[(-v.mats[0][0][0]) % P]]


def test_defect_matrix_interval_root():
    q, _ = builtin("a3")
    w = random_representation(q, (1, 1, 0), P, seed=3)
    v = random_representation(q, (1, 1, 1), P, seed=4)
    m = defect_matrix(w, v)
    va, vb, wa = v.mats[0][0][0], v.mats[1][0][0], w.mats[0][0][0]
    assert m == [[(-va) % P, wa], [0, (-vb) % P]]
    # determinant is va*vb: the witness entry cancels out of this 2x2
    assert det_mod(m, P) == va * vb % P


def test_identity_tuple_in_self_defect_kernel():
    for name in ["a4", "e6-q1", "star3"]:
        q, d = builtin(name)
        v = random_representation(q, d, P, seed=8)
        psi = [
            [[1 if i == j else 0 for j in range(d[x])] for i in range(d[x])]
            for x in range(q.node_count)
        ]
        theta = apply_defect(v, v, psi)
        assert all(all(all(e == 0 for e in row) for row in block) for block in theta)


def test_hom_ext_dims_examples():
    q, _ = builtin("a3")
    w = random_representation(q, (1, 1, 1), P, seed=5)
    v = random_representation(q, (1, 1, 1), P, seed=6)
    assert hom_ext_dims(w, v) == (1, 0)
    z = random_representation(q, (0, 0, 0), P, seed=7)
    assert hom_ext_dims(z, z) == (0, 0)


def test_hom_ext_dims_needs_a_prime_field():
    # ranks are taken over F_p only
    q, _ = builtin("a3")
    v = random_representation(q, (1, 1, 1), None, seed=5)
    with pytest.raises(ValueError, match="over F_p"):
        hom_ext_dims(v, v)


def test_hom_ext_dims_e7_rigid_pair():
    q, d = builtin("e7-highroot")
    e = (1, 1, 1, 1, 1, 0, 0)
    w = random_representation(q, e, P, seed=11)
    v = random_representation(q, d, P, seed=12)
    hom, ext = hom_ext_dims(w, v)
    assert (hom, ext) == (0, 0)


def test_hom_minus_ext_equals_euler_form_randomized():
    rng = Rng(515)
    pool = [builtin(n)[0] for n in ["a3", "a4", "d4-prop", "e6-q2", "tilde-d4-iii"]]
    for trial in range(200):
        q = pool[rng.below(len(pool))]
        e = [rng.randint(0, 3) for _ in range(q.node_count)]
        d = [rng.randint(0, 3) for _ in range(q.node_count)]
        w = random_representation(q, e, P, seed=rng.split(trial, 0).seed)
        v = random_representation(q, d, P, seed=rng.split(trial, 1).seed)
        hom, ext = hom_ext_dims(w, v)
        assert hom - ext == euler_form(q, e, d)


def test_action_matrix_a3_example():
    q, _ = builtin("a3")
    lfm = action_matrix(q, (1, 1, 1))
    assert lfm.size == 2
    # [[v_a, 0], [-v_b, v_b]] against coordinates (v_a, v_b)
    assert lfm.cells == {(0, 0): [(0, 1)], (1, 0): [(1, -1)], (1, 1): [(1, 1)]}


def test_action_matrix_requires_unit_tits_form():
    q, _ = builtin("a3")
    with pytest.raises(ValueError):
        action_matrix(q, (1, 2, 1))


def test_action_matrix_e8_size():
    q, d = builtin("e8-central-sink")
    assert action_matrix(q, d).size == 118


def test_action_matrix_entries_are_linear_no_constant():
    q, d = builtin("e6-q1")
    lfm = action_matrix(q, d)
    for terms in lfm.cells.values():
        assert terms
        for coord, sign in terms:
            assert 0 <= coord < lfm.coords.total and sign in (-1, 1)
    zeros = [0] * lfm.coords.total
    assert all(all(x == 0 for x in row) for row in lfm.evaluate(zeros, P))


def test_canonical_eval_a3_rational():
    q, _ = builtin("a3")
    v = Representation(q, (1, 1, 1), None, [[[2]], [[3]]])
    assert discriminant_value(q, (1, 1, 1), v) == 6


def test_canonical_eval_vanishes_on_non_rigid():
    q, d = builtin("d4-prop")
    v = random_representation(q, d, P, seed=20)
    v.mats[0] = [[0], [0]]  # kill one arrow: decomposable, hence non-rigid
    assert discriminant_value(q, d, v) == 0
    generic = random_representation(q, d, P, seed=21)
    assert discriminant_value(q, d, generic) != 0


def test_star2_action_det_is_product_of_minors():
    from mpoly import mp_add, mp_neg

    q, d = builtin("star2")
    lfm = action_matrix(q, d)
    n = lfm.coords.total
    det = mp_det(mpoly_matrix(lfm), n)

    def entry(arrow_idx, r):
        return mp_var(lfm.coords.index(arrow_idx, r, 0), n)

    def minor(i, j):
        return mp_add(mp_mul(entry(i, 0), entry(j, 1)), mp_neg(mp_mul(entry(j, 0), entry(i, 1))))

    prod = mp_mul(mp_mul(minor(0, 1), minor(0, 2)), minor(1, 2))
    assert det == prod or det == {k: -v for k, v in prod.items()}


def test_unit_ambiguity_between_dropped_directions():
    q, d = builtin("e6-q1")
    lfm1 = action_matrix(q, d, drop_node="1")
    lfm2 = action_matrix(q, d, drop_node="3")
    rng = Rng(33)
    ratios = set()
    for i in range(10):
        vec = [rng.below(P) for _ in range(lfm1.coords.total)]
        d1 = det_mod(lfm1.evaluate(vec, P), P)
        d2 = det_mod(lfm2.evaluate(vec, P), P)
        assert d2 != 0
        ratios.add(d1 * pow(d2, -1, P) % P)
    assert len(ratios) == 1 and 0 not in ratios


def test_extension_theta_zero_is_direct_sum():
    q, _ = builtin("a3")
    v = random_representation(q, (1, 1, 1), P, seed=41)
    w = random_representation(q, (1, 1, 0), P, seed=42)
    zero_theta = []
    for a in range(q.arrow_count):
        rows = v.dims[q.heads[a]]
        cols = w.dims[q.tails[a]]
        zero_theta.append([[0] * cols for _ in range(rows)])
    z = extension_middle_term(v, w, zero_theta)
    assert z.dims == (2, 2, 1)
    assert z.mats == direct_sum(v, w).mats


def test_extension_split_iff_theta_in_image():
    q, _ = builtin("a4")
    rng = Rng(55)
    v = random_representation(q, (1, 2, 1, 0), P, seed=43)
    w = random_representation(q, (0, 1, 1, 1), P, seed=44)
    psi = [
        [[rng.below(P) for _ in range(w.dims[x])] for _ in range(v.dims[x])]
        for x in range(q.node_count)
    ]
    theta = apply_defect(w, v, psi)
    z = extension_middle_term(v, w, theta)
    split = direct_sum(v, w)
    assert hom_ext_dims(z, z) == hom_ext_dims(split, split)


def test_extension_nontrivial_theta_drops_endomorphisms():
    # adjacent simples on a2: the nonsplit extension is the indecomposable
    q, _ = builtin("a2")
    v = random_representation(q, (0, 1), P, seed=0)  # simple at the sink
    w = random_representation(q, (1, 0), P, seed=0)  # simple at the source
    assert hom_ext_dims(w, v) == (0, 1)
    z_split = direct_sum(v, w)
    z = extension_middle_term(v, w, [[[1]]])
    end_split = hom_ext_dims(z_split, z_split)[0]
    end_nonsplit = hom_ext_dims(z, z)[0]
    assert end_nonsplit == 1 < end_split == 2


def test_coordinates_round_trip():
    q, d = builtin("e6-q2")
    lfm = action_matrix(q, d)
    v = random_representation(q, d, P, seed=77)
    vec = lfm.coords.flatten(v)
    assert len(vec) == lfm.coords.total == 22
    back = lfm.coords.unflatten(vec, P)
    assert back.mats == v.mats


def test_field_mismatch_rejected():
    q, _ = builtin("a3")
    w = random_representation(q, (1, 1, 1), P, seed=1)
    v = random_representation(q, (1, 1, 1), None, seed=1)
    with pytest.raises(ValueError):
        defect_matrix(w, v)
    q2, _ = builtin("a4")
    v2 = random_representation(q2, (1, 1, 1, 1), P, seed=1)
    with pytest.raises(ValueError):
        defect_matrix(w, v2)


def _defect_by_accumulation(w, v):
    # every coefficient added into a zero matrix, then reduced: the
    # definition of M(W, V)
    q, e, d, p = w.quiver, w.dims, v.dims, w.modulus
    col_off = [sum(d[y] * e[y] for y in range(x)) for x in range(q.node_count)]
    m = []
    for a in range(q.arrow_count):
        t, h = q.tails[a], q.heads[a]
        for r in range(d[h]):
            for s in range(e[t]):
                row = [0] * sum(x * y for x, y in zip(d, e))
                for j in range(e[h]):
                    row[col_off[h] + r * e[h] + j] += w.mats[a][j][s]
                for i in range(d[t]):
                    row[col_off[t] + i * e[t] + s] -= v.mats[a][r][i]
                m.append([reduce(x, p) for x in row])
    return m


@pytest.mark.parametrize("p", [7, P, None])
def test_defect_matrix_matches_accumulation_with_loops_and_zero_witness(p):
    # a chain, a loop with an arrow out of it, and a two-cycle with a loop:
    # on a loop the W and V blocks meet at one cell of each row; M(0, V)
    # comes from the zero representation of W's dimension vector
    rng = Rng(31)
    for arrows in ([("a", "1", "2"), ("b", "2", "3")],
                   [("l", "1", "1"), ("a", "1", "2")],
                   [("a", "1", "2"), ("b", "2", "1"), ("l", "2", "2"), ("c", "1", "3")]):
        q = build_quiver(["1", "2", "3"], arrows, allow_cycles=True)
        for _ in range(30):
            e = tuple(rng.below(3) for _ in range(3))
            d = tuple(rng.below(3) for _ in range(3))
            w = random_representation(q, e, p, rng.u64())
            v = random_representation(q, d, p, rng.u64())
            for witness in (w, zero_representation(q, e, p)):
                assert defect_matrix(witness, v) == _defect_by_accumulation(witness, v)


@pytest.mark.parametrize("p", [P, None])
def test_scale_first_coordinates_composes_the_single_node_actions(p):
    # the group action of the weight oracle: scaling every node at once
    # equals scaling one node at a time, and leaves V itself unchanged
    q, d = builtin("e6-q1")
    v = random_representation(q, d, p, seed=32)
    before = [[list(row) for row in m] for m in v.mats]
    rng = Rng(33)
    lams = {x: 2 + rng.below(17) for x in range(q.node_count) if rng.below(3)}
    one_at_a_time = v
    for x, lam in lams.items():
        one_at_a_time = scale_first_coordinates(one_at_a_time, {x: lam})
    assert scale_first_coordinates(v, lams).mats == one_at_a_time.mats
    assert v.mats == before
    for x, lam in lams.items():
        for a in range(q.arrow_count):
            if q.heads[a] == x and q.tails[a] not in lams and v.mats[a]:
                assert one_at_a_time.mats[a][0] == [reduce(y * lam, p) for y in v.mats[a][0]]
            if q.tails[a] == x and q.heads[a] not in lams and v.mats[a]:
                inv = power(lam, -1, p)
                assert [row[0] for row in one_at_a_time.mats[a]] == [
                    reduce(row[0] * inv, p) for row in v.mats[a]]
