import importlib

import pytest

from qlfd.arith import DEFAULT_PRIME, Rng
from qlfd.fixtures import block_handles, builtin, builtin_names
from qlfd.quiver import build_quiver, classify_underlying_graph, support_subquiver
from qlfd.repmatrix import Representation, random_representation
from qlfd.roots import perpendicular_simples
from qlfd.semiinv import (
    WITNESS_DRAWS,
    BlockRecipe,
    DegenerateWitnessError,
    SchofieldHandle,
    discriminant_weight,
    root_support_type,
    sample_generic_witness,
    weight_degree,
    weight_of_schofield,
    weight_support_type,
)

from mpoly import degree_of, interpolate, root_from_weight, verify_weight

P = DEFAULT_PRIME


def _line(q, d, p, seed):
    """A random line V0 + t V1 of Rep(Q, d): the pair (V0, V1)."""
    rng = Rng(seed)
    return tuple(random_representation(q, d, p, rng.split(i).seed) for i in range(2))


def _witness(q, root, d, p, seed, degree=None):
    """The handle of a generic witness over ``root``, drawn on a random line
    as the line certificate draws it, with its pencil on that line."""
    return sample_generic_witness(root, *_line(q, d, p, seed + 1), seed, degree)

# the published component table for the e7-highroot fixture:
# root -> (degree, minus_weight, (root type, weight type))
E7_TABLE = {
    (1, 1, 1, 1, 1, 0, 0): (6, (1, 0, 0, -1, 1, 0, 0), ("A5", "A3")),
    (0, 1, 1, 1, 1, 1, 0): (8, (0, 1, 0, -1, 0, 1, 0), ("A5", "A3")),
    (0, 0, 0, 1, 1, 1, 1): (6, (0, 0, 0, -1, 0, 1, 1), ("A4", "A3")),
    (0, 1, 1, 1, 0, 0, 1): (6, (0, 1, 0, -1, 0, 0, 1), ("A4", "A3")),
    (0, 0, 1, 1, 1, 0, 1): (8, (0, 0, 1, -2, 1, 0, 1), ("D4", "D4")),
    (1, 1, 2, 2, 1, 1, 1): (12, (1, 0, 1, -2, 0, 1, 1), ("E7", "D5")),
}

E7_DELTA_MINUS_WEIGHT = (2, 2, 2, -8, 2, 3, 4)


def test_weight_of_schofield_a3():
    q, _ = builtin("a3")
    assert weight_of_schofield(q, (1, 0, 0)) == (-1, 1, 0)
    assert weight_of_schofield(q, (0, 0, 0)) == (0, 0, 0)


def test_weight_of_schofield_e7_table():
    q, _ = builtin("e7-highroot")
    for root, (_, minus_w, _) in E7_TABLE.items():
        assert weight_of_schofield(q, root) == tuple(-x for x in minus_w)


def test_discriminant_weight_fixtures():
    q8, d8 = builtin("e8-central-sink")
    assert discriminant_weight(q8, d8) == (-4, -4, 12, -2, -2, -2, -3, -6)
    q7, d7 = builtin("e7-highroot")
    assert discriminant_weight(q7, d7) == tuple(-x for x in E7_DELTA_MINUS_WEIGHT)
    empty = build_quiver(["1", "2"], [])
    assert discriminant_weight(empty, (3, 5)) == (0, 0)


def test_root_from_weight_round_trips():
    q, _ = builtin("a3")
    assert root_from_weight(q, (-1, 1, 0)) == (1, 0, 0)
    assert root_from_weight(q, (0, 0, 0)) == (0, 0, 0)
    q7, _ = builtin("e7-highroot")
    for root in E7_TABLE:
        assert root_from_weight(q7, weight_of_schofield(q7, root)) == root


def test_root_from_weight_rejects_negative_result():
    q, _ = builtin("a3")
    with pytest.raises(ValueError):
        root_from_weight(q, (1, 0, 0))


def test_schofield_handle_requires_orthogonal_root():
    q, _ = builtin("a3")
    w = random_representation(q, (1, 1, 1), P, seed=1)
    with pytest.raises(ValueError):
        SchofieldHandle((1, 1, 1), w, (1, 1, 1))


def test_schofield_evaluate_simple_root():
    q, _ = builtin("a3")
    w = random_representation(q, (1, 0, 0), P, seed=2)
    h = SchofieldHandle((1, 0, 0), w, (1, 1, 1))
    v = Representation(q, (1, 1, 1), P, [[[5]], [[7]]])
    assert h.evaluate(v) in (5, P - 5)


def test_degree_of_e7_roots():
    # the level formula, the degree read off the pencil and the oracle agree
    q, d = builtin("e7-highroot")
    for root, (deg, _, _) in E7_TABLE.items():
        assert weight_degree(q, weight_of_schofield(q, root), d) == deg
        h, _ = _witness(q, root, d, P, seed=5)
        assert h.degree == deg
        assert degree_of(h, P, seed=6) == deg


def test_degree_of_e6_component_degrees():
    q, d = builtin("e6-q1")
    from qlfd.roots import perpendicular_simples

    degrees = [_witness(q, root, d, P, seed=8)[0].degree for root in perpendicular_simples(q, d)]
    assert sorted(degrees) == [4, 4, 4, 4, 6]


def test_evaluate_homogeneous_scaling():
    q, d = builtin("e6-q2")
    from qlfd.roots import perpendicular_simples

    root = perpendicular_simples(q, d)[0]
    h, _ = _witness(q, root, d, P, seed=9)
    deg = h.degree
    rng = Rng(10)
    v = random_representation(q, d, P, seed=11)
    lam = 2 + rng.below(P - 3)
    scaled = Representation(
        q, d, P, [[[x * lam % P for x in row] for row in m] for m in v.mats]
    )
    assert h.evaluate(scaled) == h.evaluate(v) * pow(lam, deg, P) % P


def test_evaluate_zero_at_origin():
    q, d = builtin("e6-q1")
    zero = Representation(
        q,
        d,
        P,
        [
            [[0] * (d[q.tails[a]]) for _ in range(d[q.heads[a]])]
            for a in range(q.arrow_count)
        ],
    )
    from qlfd.roots import perpendicular_simples

    root = perpendicular_simples(q, d)[0]
    h, _ = _witness(q, root, d, P, seed=13)
    assert h.evaluate(zero) == 0


def _checked_weight(h, declared, p, seed):
    """The ``verify_weight`` oracle at a random point of Rep(Q, d), given
    the value there."""
    v = random_representation(h.quiver, h.dims, p, seed=seed + 100)
    value = h.evaluate(v)
    assert value
    return verify_weight(h, declared, v, value, seed=seed)


def test_verify_weight_a3_and_identity():
    q, _ = builtin("a3")
    w = random_representation(q, (1, 0, 0), P, seed=3)
    h = SchofieldHandle((1, 0, 0), w, (1, 1, 1))
    assert _checked_weight(h, (-1, 1, 0), P, seed=4)
    assert not _checked_weight(h, (1, 1, 0), P, seed=4)


def test_verify_weight_sees_an_error_only_the_joint_scaling_can_see():
    # delta = (1, -2, 1) pairs to zero with d = (1, 1, 1) and with
    # l * d = (0, 1, 2), so neither a scalar lam nor V -> lam V detects it
    q, d = builtin("a3")
    declared = (0, -1, 1)
    delta = [a - b for a, b in zip(declared, weight_of_schofield(q, (1, 0, 0)))]
    assert delta == [1, -2, 1]
    assert sum(x * y for x, y in zip(delta, d)) == 0
    assert sum(x * y * z for x, y, z in zip(delta, (0, 1, 2), d)) == 0
    for p in (P, None):
        w = random_representation(q, (1, 0, 0), p, seed=3)
        h = SchofieldHandle((1, 0, 0), w, d)
        for seed in range(5):
            assert _checked_weight(h, (-1, 1, 0), p, seed=seed)
            assert not _checked_weight(h, declared, p, seed=seed)


@pytest.mark.parametrize("name", builtin_names())
def test_every_simple_scales_by_its_weight_under_the_group(name):
    # c^W(g.V) = prod_x lam_x**w_x c^W(V) with w = -eE holds for every W, V
    # and g, so certify checks no weight at run time.  Here: each simple of
    # the builtin, at three seeds over F_p, and over Q on a Dynkin support
    # within the exact cap dim Rep <= 24
    q, d = support_subquiver(*builtin(name))
    try:
        simples = perpendicular_simples(q, d)
    except ValueError:
        assert name == "tilde-d4-iv"  # not a Schur root: no simples
        return
    dim_rep = sum(d[t] * d[h] for t, h in zip(q.tails, q.heads))
    exact = classify_underlying_graph(q).kind == "dynkin" and dim_rep <= 24
    for e in simples:
        w = weight_of_schofield(q, e)
        for p in (P, None) if exact else (P,):
            for seed in range(3):
                # a witness and a point where the handle is nonzero; over Q
                # a draw from [-9, 9] is 0 often enough to need redraws
                rng = Rng(seed)
                for attempt in range(8):
                    witness = random_representation(q, e, p, rng.split(attempt, 0).seed)
                    v = random_representation(q, d, p, rng.split(attempt, 1).seed)
                    h = SchofieldHandle(e, witness, d)
                    if value := h.evaluate(v):
                        break
                assert value and verify_weight(h, w, v, value, seed), (e, p, seed)
    assert not hasattr(importlib.import_module("qlfd.semiinv"), "verify_weight")


def test_witness_and_weight_cost_one_pencil_and_one_evaluation(monkeypatch):
    # the witness is accepted by its pencil on the line, with no evaluation;
    # its leading coefficient h(V1) is the weight oracle's base value, which
    # then costs one evaluation
    semiinv = importlib.import_module("qlfd.semiinv")
    q, d = builtin("e7-highroot")
    root = next(iter(E7_TABLE))
    values, pencils = [], []
    evaluate, pencil = SchofieldHandle.evaluate, semiinv.det_pencil_poly
    monkeypatch.setattr(
        SchofieldHandle, "evaluate", lambda h, v: values.append(evaluate(h, v)) or values[-1]
    )
    monkeypatch.setattr(
        semiinv, "det_pencil_poly", lambda m0, m1, p: pencils.append(len(m0)) or pencil(m0, m1, p)
    )
    v0, v1 = _line(q, d, P, seed=6)
    h, f = sample_generic_witness(root, v0, v1, seed=5)
    assert h.degree == E7_TABLE[root][0]
    assert values == [] and pencils == [h.degree_bound]
    assert f[-1] == evaluate(h, v1) != 0
    values.clear()
    assert verify_weight(h, weight_of_schofield(q, root), v1, f[-1], seed=6)
    assert len(values) == 1 and pencils == [h.degree_bound]


def test_verify_weight_block_handles():
    for name in ["e7-highroot", "e8-central-sink"]:
        for root, bh in block_handles(name).items():
            assert _checked_weight(bh, bh.weight, P, seed=15), (name, root)


def test_block_recipe_identity_cells_and_unknown_arrows():
    from qlfd.arith import det_mod

    q, d = builtin("a3")  # arrows a1: 1->2, a2: 2->3
    r = BlockRecipe(
        q, d, [1, 1], [1, 1], [[("ident", -1), (1, ("a1",))], [None, (1, ("a2",))]]
    )
    v = random_representation(q, d, P, seed=5)
    m = r.assemble(v)
    va, vb = v.mats[0][0][0], v.mats[1][0][0]
    assert m == [[P - 1, va], [0, vb]]
    assert det_mod(m, P) == (-vb) % P
    assert r.degree_bound() == 1  # identity column contributes degree 0
    with pytest.raises(ValueError, match="unknown arrow"):
        BlockRecipe(q, d, [1, 1], [1, 1], [[("ident", 1), (1, ("zz",))], [None, (1, ("a2",))]])


def test_block_recipe_shape_validation():
    q, d = builtin("e7-highroot")
    with pytest.raises(ValueError):
        BlockRecipe(q, d, [4, 4], [3, 3], [[None, None], [None, None]])  # not square
    with pytest.raises(ValueError):
        BlockRecipe(q, d, [4], [2, 2], [[(1, ("C",)), None]])  # C is 4x3, slot is 4x2
    with pytest.raises(ValueError):
        BlockRecipe(q, d, [4], [1, 3], [[(1, ("A", "C")), None]])  # not composable


def test_block_handles_match_automatic_handles():
    rng = Rng(99)
    for name in ["e7-highroot"]:
        q, d = builtin(name)
        for root, bh in block_handles(name).items():
            ah, _ = _witness(q, root, d, P, seed=17)
            assert degree_of(bh, P, seed=18) == ah.degree
            ratios = set()
            for i in range(10):
                v = random_representation(q, d, P, seed=rng.split(i).seed)
                a, b = ah.evaluate(v), bh.evaluate(v)
                assert a != 0 and b != 0
                ratios.add(a * pow(b, -1, P) % P)
            assert len(ratios) == 1


def test_sample_generic_witness_rejects_non_semigroup_root(monkeypatch):
    # orthogonal, Tits form 1, but its semi-invariant vanishes identically
    q, d = builtin("q3")
    bad = (1, 1, 2, 0, 0, 3, 1)
    from qlfd.quiver import euler_form, tits_form

    assert euler_form(q, bad, d) == 0 and tits_form(q, bad) == 1
    semiinv = importlib.import_module("qlfd.semiinv")
    pencils = []
    pencil = semiinv.det_pencil_poly
    monkeypatch.setattr(
        semiinv, "det_pencil_poly", lambda m0, m1, p: pencils.append(len(m0)) or pencil(m0, m1, p)
    )
    with pytest.raises(DegenerateWitnessError, match=f"after {WITNESS_DRAWS} attempts"):
        _witness(q, bad, d, P, seed=19)
    assert len(pencils) == WITNESS_DRAWS == 32


def test_weight_support_types_e7():
    q, _ = builtin("e7-highroot")
    for root, (_, minus_w, (rt, wt)) in E7_TABLE.items():
        w = tuple(-x for x in minus_w)
        assert weight_support_type(q, w).label == wt
        assert root_support_type(q, root).label == rt


def test_weight_support_type_full_support():
    q, _ = builtin("a3")
    assert weight_support_type(q, (1, -1, 1)).label == "A3"


def test_exact_mode_witness_and_weight():
    q, d = builtin("a4")
    root = (1, 0, 0, 0)
    v0, v1 = _line(q, d, None, seed=22)
    h, f = sample_generic_witness(root, v0, v1, seed=23)
    assert h.degree == 1 and f[-1] == h.evaluate(v1)
    assert verify_weight(h, weight_of_schofield(q, root), v1, f[-1], seed=24)


# ---------------------------------------------------------------------------
# degree_of against a Lagrange oracle of t -> f(tV)

# the unbalanced cycle 1->2, 2->3, 1->3 with d = (1,1,2): a non-tree support
# whose two components have degrees 1 and 2
CYCLE_QUIVER = build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
CYCLE_DIMS = (1, 1, 2)
CYCLE_DEGREES = {(1, 0, 1): 1, (1, 2, 2): 2}


def _scaled(v, t):
    p = v.modulus
    mats = [[[x * t if p is None else x * t % p for x in row] for row in m] for m in v.mats]
    return Representation(v.quiver, v.dims, p, mats)


def lagrange_degree(handle, prime, v):
    """Degree of t -> f(tV) by interpolation at degree_bound + 1 points,
    asserted to be a monomial."""
    points = [(t, handle.evaluate(_scaled(v, t))) for t in range(handle.degree_bound + 1)]
    poly = interpolate(points, prime)
    assert poly and not any(poly[:-1])
    return len(poly) - 1


def _assert_degree_matches_oracle(q, d, root, prime, seed):
    h, _ = _witness(q, root, d, prime, seed=seed)
    v = random_representation(q, d, prime, seed=seed + 1)
    assert h.evaluate(v) != 0
    read = h.degree  # read off the pencil
    deg = degree_of(h, prime, seed=seed + 2)
    assert deg == lagrange_degree(h, prime, v) == read
    return deg


def test_degree_of_matches_lagrange_e7():
    q, d = builtin("e7-highroot")
    for i, (root, (deg, _, _)) in enumerate(E7_TABLE.items()):
        assert _assert_degree_matches_oracle(q, d, root, P, seed=100 + 10 * i) == deg


def test_degree_of_matches_lagrange_cycle_quiver():
    for i, (root, deg) in enumerate(CYCLE_DEGREES.items()):
        got = _assert_degree_matches_oracle(CYCLE_QUIVER, CYCLE_DIMS, root, P, seed=200 + 10 * i)
        assert got == deg


def test_degree_of_matches_lagrange_d5_exact():
    from qlfd.roots import perpendicular_simples

    q, d = builtin("d5-prop")
    roots = perpendicular_simples(q, d)
    assert roots
    for i, root in enumerate(roots):
        _assert_degree_matches_oracle(q, d, root, None, seed=300 + 10 * i)


def test_degree_of_evaluates_twice_at_a_nonzero_point():
    q, d = builtin("e7-highroot")
    root = next(iter(E7_TABLE))
    h, _ = _witness(q, root, d, P, seed=5)
    values = []
    evaluate = h.evaluate
    h.evaluate = lambda v: values.append(evaluate(v)) or values[-1]
    assert degree_of(h, P, seed=6) == E7_TABLE[root][0]
    assert len(values) == 2 and values[0] != 0


class _PolyHandle:
    """Handle on a2 with d = (1, 1) whose value is a polynomial in the
    single coordinate x."""

    def __init__(self, coeffs, degree_bound):
        self.quiver, self.dims = builtin("a2")
        self.coeffs = coeffs
        self.degree_bound = degree_bound
        self.degree = None

    def evaluate(self, v):
        x = v.mats[0][0][0]
        val = sum(c * x**k for k, c in enumerate(self.coeffs))
        return val if v.modulus is None else val % v.modulus


def test_degree_of_rejects_non_homogeneous_handle():
    with pytest.raises(AssertionError, match="not a monomial"):
        degree_of(_PolyHandle([0, 1, 1], 2), P, seed=1)
    with pytest.raises(AssertionError, match="not a monomial"):
        degree_of(_PolyHandle([0, 1, 1], 2), None, seed=1)


def test_degree_of_skips_scalars_with_colliding_powers():
    # over F_7, lam = 2 and lam = 4 have order 3, so lam**3 == lam**0: a
    # degree-3 value would also match exponent 0 without the collision check
    for seed in range(20):
        try:
            assert degree_of(_PolyHandle([0, 0, 0, 1], 3), 7, seed=seed) == 3
        except DegenerateWitnessError:
            pass


def _random_tree(rng, n):
    """A tree on n nodes, each node after the first joined to an earlier one
    by an arrow of random direction."""
    arrows = []
    for y in range(1, n):
        x = rng.below(y)
        tail, head = (x, y) if rng.below(2) else (y, x)
        arrows.append((f"a{y}", str(tail), str(head)))
    return build_quiver([str(i) for i in range(n)], arrows)


def test_level_formula_matches_degree_of_on_random_trees():
    from roots_oracle import lattice_roots

    rng = Rng(41)
    checked = 0
    for trial in range(30):
        q = _random_tree(rng, 3 + rng.below(4))
        d = tuple(1 + rng.below(3) for _ in range(q.node_count))
        for i, root in enumerate((lattice_roots(q, d) or [])[:4]):
            h = SchofieldHandle(root, random_representation(q, root, P, seed=trial), d)
            if not h.evaluate(random_representation(q, d, P, seed=trial + 1)):
                continue  # c^W vanishes identically for this root
            deg = weight_degree(q, weight_of_schofield(q, root), d)
            assert degree_of(h, P, seed=i) == deg, (q.arrows, d, root)
            checked += 1
    assert checked >= 20
