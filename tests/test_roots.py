import importlib
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from qlfd import roots as roots_module
from qlfd.arith import DEFAULT_PRIME, Rng, rank_mod
from qlfd.certify import multiplicity_vector
from qlfd.fixtures import builtin, builtin_names
from qlfd.quiver import (
    build_quiver,
    classify_underlying_graph,
    euler_form,
    euler_matrix,
    level_function,
    support_subquiver,
    tits_form,
)
from qlfd.repmatrix import action_matrix, hom_ext_dims
from qlfd.roots import (
    highest_root,
    orthogonal_roots,
    perpendicular_simples,
    positive_roots,
)
from qlfd.semiinv import discriminant_weight, weight_of_schofield

from mpoly import root_from_weight
from randquiver import is_schur, random_real_roots
from roots_oracle import lattice_roots, old_components, semigroup_basis

P = DEFAULT_PRIME
certify_module = importlib.import_module("qlfd.certify")


def box_scan_roots(q, box):
    """Independent oracle: every nonzero vector in the box with Tits form 1.

    For a Dynkin diagram these are exactly the positive roots; the box is the
    componentwise highest root plus one, so the scan also confirms no root
    escapes the expected bounds.
    """
    n = q.node_count
    axes = [np.arange(b + 2, dtype=np.int16) for b in box]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(np.int32)
    q_vals = (pts * pts).sum(axis=1)
    for t, h in zip(q.tails, q.heads):
        q_vals = q_vals - pts[:, t] * pts[:, h]
    mask = (q_vals == 1) & (pts.sum(axis=1) > 0)
    return {tuple(int(x) for x in row) for row in pts[mask]}


CLASSICAL_COUNTS = {
    "a2": 3,
    "a3": 6,
    "a6": 21,
    "d4-prop": 12,
    "d6-prop": 30,
    "d8-prop": 56,
    "e6-q1": 36,
    "e7-highroot": 63,
    "e8-central-sink": 120,
    "star2": 12,
}


def test_positive_root_counts_match_classical_formulas():
    for name, count in CLASSICAL_COUNTS.items():
        q, _ = builtin(name)
        assert len(positive_roots(q)) == count, name


def test_positive_roots_match_box_scan_oracle():
    for name in ["a3", "d5-prop", "e6-q2", "e7-highroot", "e8-central-sink"]:
        q, _ = builtin(name)
        roots = positive_roots(q)
        assert set(roots) == box_scan_roots(q, highest_root(q)), name


def test_positive_roots_require_dynkin():
    with pytest.raises(ValueError):
        positive_roots(builtin("tilde-d4-i")[0])


def test_positive_roots_a1():
    q = build_quiver(["1"], [])
    assert positive_roots(q) == [(1,)]


def test_highest_roots():
    assert highest_root(builtin("a5")[0]) == (1, 1, 1, 1, 1)
    assert highest_root(builtin("e7-highroot")[0]) == (1, 2, 3, 4, 3, 2, 2)
    assert highest_root(builtin("e8-central-sink")[0]) == (2, 4, 6, 5, 4, 3, 2, 3)
    # highest root of the fixtures equals the fixture dimension vector
    for name in ["e6-q1", "e7-highroot", "e8-central-sink", "d5-prop"]:
        q, d = builtin(name)
        assert highest_root(q) == d, name


def _probe(q, d, seed):
    """The first line ``certify`` draws at ``seed``, or None, and the least
    N + 1 - rank A(V1) over the leading members V1 it tried."""
    lfm = action_matrix(q, d)
    line, rank = certify_module._probe_line(lfm, P, seed)
    return line, lfm.size + 1 - rank


def _end_by_rank(q, d, rng):
    """A random point V over F_p, and N + 1 - rank A(V), N = dim Rep."""
    lfm = action_matrix(q, d)
    vec = [rng.below(P) for _ in range(lfm.coords.total)]
    v = lfm.coords.unflatten(vec, P)
    return v, lfm.size + 1 - rank_mod(lfm.evaluate(vec, P), P)


def test_brick_probe_a3():
    # an invertible leading member A(V1) makes V1 a brick: dim End 1
    q, _ = builtin("a3")
    line, end = _probe(q, (1, 1, 1), seed=3)
    assert line is not None and end == 1


def test_brick_probe_single_node():
    # dim Rep 0: the empty action matrix has determinant 1
    q = build_quiver(["1"], [])
    assert _probe(q, (1,), seed=5) == (([], [], 1), 1)


def test_brick_probe_non_schur_case():
    q, d = builtin("tilde-d4-iv")
    line, end = _probe(q, d, seed=11)
    assert line is None and end >= 2


def test_brick_probe_rank_nullity_invariant():
    # the identity behind certify's Schur proof, N + 1 - rank A(V) = dim End V,
    # and dim End - dim Ext^1 = <d, d>, against hom_ext_dims: on builtins,
    # on random real roots, bricks and not, and on the non-Schur real root
    # (2,7,2) of 0 => 1 => 2, whose general representation has dim End 10
    wild = build_quiver(
        ["0", "1", "2"],
        [("a", "0", "1"), ("b", "0", "1"), ("c", "1", "2"), ("e", "1", "2")],
    )
    cases = [builtin(name) for name in ("a3", "tilde-d4-iv", "e6-q1", "q3")]
    cases += [*random_real_roots(26, 60), (wild, (2, 7, 2))]
    rng = Rng(13)
    ends = []
    for q, d in cases:
        v, end = _end_by_rank(q, d, rng)
        assert hom_ext_dims(v, v) == (end, end - tits_form(q, d)), (q.name, q.arrows, d)
        ends.append(end)
    assert ends[:4] == [1, 2, 1, 1] and ends[-1] == 10
    bricks = ends.count(1)
    assert bricks >= 20 and len(ends) - bricks >= 10


@pytest.mark.parametrize("name,calls", [("star7", 1), ("tilde-d4-iv", 8)])
def test_brick_probe_stops_at_the_first_brick_sample(name, calls, monkeypatch):
    # the line stops at its first invertible leading member A(V1), a brick;
    # a non-Schur root tries all 8, and reports the least dim End among them
    drawn = []
    draw = certify_module._random_coordinate_vector

    def recorded(lfm, p, rng):
        drawn.append(draw(lfm, p, rng))
        return drawn[-1]

    monkeypatch.setattr(certify_module, "_random_coordinate_vector", recorded)
    q, d = builtin(name)
    line, end = _probe(q, d, seed=101)
    assert (line is None) == (calls == 8) and len(drawn) == 2 * calls
    coords = action_matrix(q, d).coords
    leading = [coords.unflatten(vec, P) for vec in drawn[1::2]]
    assert end == min(hom_ext_dims(v, v)[0] for v in leading)


def test_orthogonal_roots_a3():
    q, _ = builtin("a3")
    assert set(orthogonal_roots(q, (1, 1, 1))) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_orthogonal_roots_a2_highest():
    q, _ = builtin("a2")
    assert orthogonal_roots(q, (1, 1)) == [(1, 0)]


def test_orthogonal_roots_e7_contains_table_roots():
    q, d = builtin("e7-highroot")
    ortho = set(orthogonal_roots(q, d))
    assert (1, 1, 1, 1, 1, 0, 0) in ortho
    assert (1, 1, 2, 2, 1, 1, 1) in ortho
    for e in ortho:
        assert euler_form(q, e, d) == 0


def test_orthogonal_roots_non_dynkin_rejected():
    q, d = builtin("q2")
    with pytest.raises(ValueError):
        orthogonal_roots(q, d)


def test_semigroup_basis_a3():
    basis = semigroup_basis([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert basis == [(0, 1, 0), (1, 0, 0)]


def _is_combination(target, basis):
    # bounded-depth search: is target an N-combination of basis vectors?
    if not any(target):
        return True
    for b in basis:
        if all(x >= y for x, y in zip(target, b)):
            rest = tuple(x - y for x, y in zip(target, b))
            if _is_combination(rest, basis):
                return True
    return False


def test_semigroup_basis_spans_inputs_e7():
    q, d = builtin("e7-highroot")
    ortho = orthogonal_roots(q, d)
    basis = semigroup_basis(ortho)
    assert len(basis) == 6
    for r in basis:
        assert r in ortho
    for r in ortho:
        assert _is_combination(r, basis)


def test_semigroup_basis_e8_size():
    q, d = builtin("e8-central-sink")
    basis = semigroup_basis(orthogonal_roots(q, d))
    assert len(basis) == 7


DYNKIN_BUILTINS = [
    n for n in builtin_names() if classify_underlying_graph(builtin(n)[0]).kind == "dynkin"
]


def box_candidates(q, d):
    """Independent oracle for the advisory box scan: every nonzero e with
    0 <= e_x <= d_x + max(d), <e, d> = 0 and q(e) = 1.  The pairing fixes the
    coordinate with the largest coefficient; the others are a numpy grid,
    one slice per value of the first of them."""
    n = q.node_count
    e_mat = euler_matrix(q)
    coeff = [sum(e_mat[x][y] * d[y] for y in range(n)) for x in range(n)]
    pivot = max(range(n), key=lambda x: abs(coeff[x]))
    others = [x for x in range(n) if x != pivot]
    bounds = [dx + max(d) for dx in d]
    found = set()
    for first in range(bounds[others[0]] + 1):
        axes = [np.array([first])] + [np.arange(bounds[x] + 1) for x in others[1:]]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.zeros((grids[0].size, n), dtype=np.int64)
        for x, g in zip(others, grids):
            pts[:, x] = g.ravel()
        partial = pts @ np.array(coeff, dtype=np.int64)
        pts[:, pivot] = -partial // coeff[pivot]
        ok = (partial % coeff[pivot] == 0) & (pts[:, pivot] >= 0)
        ok &= pts[:, pivot] <= bounds[pivot]
        pts = pts[ok]
        q_vals = (pts * pts).sum(axis=1)
        for t, h in zip(q.tails, q.heads):
            q_vals -= pts[:, t] * pts[:, h]
        hit = pts[(q_vals == 1) & (pts.sum(axis=1) > 0)]
        found |= {tuple(int(v) for v in row) for row in hit}
    return found


@pytest.mark.parametrize("name", DYNKIN_BUILTINS)
def test_lattice_roots_equal_orthogonal_roots_on_dynkin(name):
    q, d = builtin(name)
    assert lattice_roots(q, d) == orthogonal_roots(q, d)


def test_dynkin_builtin_count():
    assert len(DYNKIN_BUILTINS) == 17


def test_lattice_roots_a4_lists_all_six():
    # the LDL^T step must stay exact: int / int there once lost three roots
    q, d = builtin("a4")
    assert lattice_roots(q, d) == [
        (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0),
    ]


def test_lattice_roots_random_dynkin_orientations_and_vectors():
    # on a Dynkin support the nonnegative vectors with q = 1 are exactly the
    # positive roots, so both listings agree for every d, sincere or not
    rng = Rng(97)
    for base in ["a6", "d6-prop", "e7-highroot"]:
        q, _ = builtin(base)
        for _ in range(16):
            mask = rng.below(1 << q.arrow_count)
            arrows = [
                (a.name, a.head, a.tail) if (mask >> i) & 1 else (a.name, a.tail, a.head)
                for i, a in enumerate(q.arrows)
            ]
            flipped = build_quiver(q.nodes, arrows)
            d = tuple(rng.below(4) for _ in range(q.node_count))
            if not any(d) or isinstance(classify_underlying_graph(support_subquiver(q, d)[0]), list):
                continue
            assert lattice_roots(flipped, d) == orthogonal_roots(flipped, d), (base, mask, d)


def star_box_candidates(n):
    """The box oracle for star{n} (n + 1 sources into a sink), which is
    symmetric in the sources: scan one sorted tuple of source values per
    orbit, then add every permutation of each hit."""
    q, d = builtin(f"star{n}")
    bounds = [x + max(d) for x in d]
    found = set()
    for sources in combinations_with_replacement(range(bounds[0] + 1), n + 1):
        for sink in range(bounds[-1] + 1):
            e = sources + (sink,)
            if any(e) and euler_form(q, e, d) == 0 and tits_form(q, e) == 1:
                found |= {p + (sink,) for p in permutations(sources)}
    return found


def box_oracle(name):
    q, d = builtin(name)
    if name.startswith("star"):
        return star_box_candidates(int(name[4:]))
    return box_candidates(q, d)


LATTICE_EXTRAS = {
    "q2": {(2, 2, 2, 3, 3, 7, 9), (2, 2, 2, 3, 3, 8, 9)},
    "tilde-d4-ii": {(4, 3, 3, 3, 7)},
}


@pytest.mark.parametrize(
    "name",
    ["q1", "q2", "star3", "star4", "star5", "star6", "star7",
     "tilde-d4-i", "tilde-d4-ii", "tilde-d4-iii"],
)
def test_lattice_roots_contain_box_scan(name):
    q, d = builtin(name)
    found = lattice_roots(q, d)
    assert found == sorted(set(found))
    for e in found:
        assert min(e) >= 0 and any(e)
        assert euler_form(q, e, d) == 0 and tits_form(q, e) == 1
    box = box_oracle(name)
    assert box <= set(found)
    assert set(found) - box == LATTICE_EXTRAS.get(name, set())


@pytest.mark.parametrize("name", ["q3", "tilde-d4-iv"])
def test_lattice_roots_none_when_not_definite(name):
    # q3: one negative eigenvalue on d-perp; tilde-d4-iv: semidefinite
    q, d = builtin(name)
    assert lattice_roots(q, d) is None


def test_lattice_roots_single_node_and_non_sincere():
    q = build_quiver(["1"], [])
    assert lattice_roots(q, (3,)) == []
    q, _ = builtin("a3")
    # d = (1, 1, 0) lives on the a2 support {1, 2}; roots stay full-length
    assert lattice_roots(q, (1, 1, 0)) == orthogonal_roots(q, (1, 1, 0)) == [(1, 0, 0)]


def closure_semigroup_basis(roots):
    """Reference: close the inputs under addition inside their componentwise
    bounding box, then drop every input that is a sum of two closure
    elements."""
    roots = [tuple(r) for r in roots]
    box = tuple(map(max, zip(*roots)))

    def add(a, b):
        s = tuple(x + y for x, y in zip(a, b))
        return s if all(x <= m for x, m in zip(s, box)) else None

    closure = set(roots)
    frontier = set(roots)
    while frontier:
        fresh = {s for a in frontier for b in closure if (s := add(a, b))} - closure
        closure |= fresh
        frontier = fresh
    sums = {add(a, b) for a in closure for b in closure}
    return sorted(r for r in roots if r not in sums)


def test_semigroup_basis_matches_closure_reference():
    rng = Rng(5)
    for _ in range(1500):
        n = 1 + rng.below(4)
        roots = [tuple(rng.below(4) for _ in range(n)) for _ in range(1 + rng.below(7))]
        roots = [r for r in roots if any(r)]
        if roots:
            assert semigroup_basis(roots) == closure_semigroup_basis(roots), roots
    for name in ["a8", "d8-prop", "e8-central-sink", "q2", "q3", "tilde-d4-ii"]:
        q, d = builtin(name)
        roots = lattice_roots(q, d) or sorted(box_candidates(q, d))
        assert semigroup_basis(roots) == closure_semigroup_basis(roots), name


def test_semigroup_basis_of_wide_lattice_root_list():
    # d-perp here is an E7 lattice: 63 roots reaching 18 on node 0, whose
    # bounding box held about 10^8 points for the closure to fill
    nodes = [str(i) for i in range(8)]
    arrows = [("x0", "1", "0"), ("x1", "2", "0"), ("x2", "2", "3"), ("x3", "4", "1"),
              ("x4", "5", "0"), ("x5", "3", "6"), ("x6", "7", "4")]
    q = build_quiver(nodes, arrows)
    d = (4, 3, 3, 2, 1, 2, 1, 1)
    roots = lattice_roots(q, d)
    assert len(roots) == 63
    assert semigroup_basis(roots) == [
        (0, 0, 0, 0, 0, 0, 0, 1), (1, 0, 1, 1, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 0, 1, 1, 0), (1, 1, 1, 1, 1, 0, 1, 0), (2, 1, 1, 0, 1, 1, 0, 0),
        (2, 2, 1, 1, 1, 1, 0, 0),
    ]


Q3_COMPONENTS = [
    (0, 0, 0, 0, 0, 0, 1), (0, 1, 1, 1, 1, 3, 2), (1, 0, 1, 1, 1, 3, 2),
    (1, 1, 0, 1, 1, 3, 2), (1, 1, 1, 0, 1, 3, 1), (1, 1, 1, 1, 0, 3, 1),
]


def _assert_simples(q, d, simples):
    """The simples of perp(E_d) for a real Schur root d: n - 1 real roots in
    d-perp, <s_i, s_j> <= 0 for i != j, and positive integer multiplicities
    a with sum a_i s_i the root of the discriminant's weight."""
    n = q.node_count
    assert len(simples) == n - 1
    for a in simples:
        assert euler_form(q, a, d) == 0 and euler_form(q, a, a) == 1
        assert all(euler_form(q, a, b) <= 0 for b in simples if b != a)
    mults = multiplicity_vector(q, d, [weight_of_schofield(q, s) for s in simples])
    assert min(mults, default=1) >= 1
    total = tuple(sum(a * s[x] for a, s in zip(mults, simples)) for x in range(n))
    assert total == root_from_weight(q, discriminant_weight(q, d))


@pytest.mark.parametrize("name", [n for n in builtin_names() if n != "tilde-d4-iv"] + ["star7"])
def test_perpendicular_simples_on_builtins(name):
    # the old pipeline's answer wherever q is definite on d-perp; q3 is not,
    # and its components are those of the pinned q3 report
    q, d = builtin(name)
    simples = perpendicular_simples(q, d)
    _assert_simples(q, d, simples)
    old = old_components(q, d, P, seed=2)
    assert simples == (Q3_COMPONENTS if name == "q3" else old)
    assert (old is None) == (name == "q3")


def test_perpendicular_simples_on_random_acyclic_quivers():
    checked = definite = unbalanced = 0
    for i, (q, d) in enumerate(random_real_roots(15, 150)):
        if not is_schur(q, d, seed=i):
            continue
        simples = perpendicular_simples(q, d)
        _assert_simples(q, d, simples)
        old = old_components(q, d, P, seed=i)
        if old is not None:
            assert simples == old, (q.arrows, d)
            definite += 1
        unbalanced += level_function(q) is None
        checked += 1
    assert checked >= 80 and definite >= 30 and checked - definite >= 30
    assert unbalanced >= 10


def test_move_a_reads_the_simples_off_a_simple_root():
    # d = e_2 on 1 => 2 -> 3: e_y + #(arrows y -> 2) e_2 for y = 1, 3
    q = build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])
    assert perpendicular_simples(q, (0, 1, 0)) == [(0, 0, 1), (1, 2, 0)]


def test_move_d_lifts_the_recursion():
    # on a3 every step is a (D) move: S_1, then S_2 of the recursion on
    # {2, 3}, lifted to (1, 1, 0) and reduced by <(1, 1, 0), e_1> = 1
    q, d = builtin("a3")
    assert perpendicular_simples(q, d) == [(0, 1, 0), (1, 0, 0)]
    q, d = builtin("a2")
    assert perpendicular_simples(q, d) == [(1, 0)]


def test_move_r_maps_back_by_the_cartan_reflection():
    # star2 with d = (1, 1, 1, 2) has no (A) or (D) move in either
    # orientation of its three arms: sources into the sink 4, or 4 a source
    q, d = builtin("star2")
    assert perpendicular_simples(q, d) == [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)]
    flipped = build_quiver(q.nodes, [(a.name, a.head, a.tail) for a in q.arrows])
    simples = perpendicular_simples(flipped, d)
    assert simples == [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1)]
    assert simples == old_components(flipped, d, P, seed=3)


def test_perpendicular_simples_refusals():
    # tilde-d4-iv: a real root that is not a Schur root, where the search
    # runs out; certify's first line refuses such a root before the search
    with pytest.raises(ValueError, match="finite reflection orbit; the search ran out"):
        perpendicular_simples(*builtin("tilde-d4-iv"))
    q, _ = builtin("a3")
    with pytest.raises(ValueError, match="positive real root"):
        perpendicular_simples(q, (1, 2, 1))
    cycle = build_quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], allow_cycles=True)
    with pytest.raises(ValueError, match="acyclic"):
        perpendicular_simples(cycle, (1, 0))


def test_perpendicular_simples_state_bound(monkeypatch):
    # E8 visits 50 states; a bound of 20 stops it
    q, d = builtin("e8-central-sink")
    monkeypatch.setattr(roots_module, "MAX_REFLECTION_STATES", 20)
    with pytest.raises(ValueError, match="within 20 reflection states"):
        perpendicular_simples(q, d)
    monkeypatch.setattr(roots_module, "MAX_REFLECTION_STATES", 50)
    assert len(perpendicular_simples(q, d)) == 7
