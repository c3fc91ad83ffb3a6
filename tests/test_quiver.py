import pytest

from qlfd.arith import Rng
from qlfd.fixtures import builtin
from qlfd.quiver import (
    build_quiver,
    cartan_matrix,
    classify_underlying_graph,
    connected_components,
    euler_form,
    euler_inverse,
    euler_matrix,
    in_out_degree,
    is_acyclic,
    level_function,
    opposite_quiver,
    support_subquiver,
    tits_form,
)


def a3():
    return builtin("a3")[0]


def test_build_quiver_validation():
    with pytest.raises(ValueError):
        build_quiver(["1", "1"], [])
    with pytest.raises(ValueError):
        build_quiver(["1"], [("a", "1", "2")])
    with pytest.raises(ValueError):
        build_quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])
    # 2-cycle rejected by default
    with pytest.raises(ValueError):
        build_quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    # the one-node two-loop wild quiver is representable behind the flag
    q = build_quiver(["1"], [("a", "1", "1"), ("b", "1", "1")], allow_cycles=True)
    assert q.arrow_count == 2 and not is_acyclic(q)


def test_euler_matrix_examples():
    assert euler_matrix(a3()) == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
    q = build_quiver(["1", "2"], [])
    assert euler_matrix(q) == [[1, 0], [0, 1]]
    star, _ = builtin("star2")
    e = euler_matrix(star)
    # three source rows carry -1 in the sink column
    for i in range(3):
        assert e[i][3] == -1 and e[i][i] == 1
    assert e[3][3] == 1


def test_euler_inverse_examples():
    assert euler_inverse(a3()) == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    q = build_quiver(["1", "2"], [])
    assert euler_inverse(q) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        euler_inverse(build_quiver(["1"], [("a", "1", "1")], allow_cycles=True))


def test_euler_inverse_is_inverse_on_all_builtins():
    from qlfd.fixtures import builtin_names

    for name in builtin_names():
        q, _ = builtin(name)
        e = euler_matrix(q)
        inv = euler_inverse(q)
        n = q.node_count
        prod = [
            [sum(e[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_level_function_on_builtins_and_an_unbalanced_cycle():
    from qlfd.fixtures import builtin_names

    for name in builtin_names() + ["star7"]:
        q, _ = builtin(name)
        levels = level_function(q)
        assert levels is not None, name
        assert all(levels[h] == levels[t] + 1 for t, h in zip(q.tails, q.heads)), name
    # the triangle 1->2->3, 1->3: two arrows one way round the cycle, one the other
    cycle3 = build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    assert level_function(cycle3) is None
    # a balanced square 1->2->4, 1->3->4 has one; so does each of two components
    square = build_quiver(
        ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    )
    assert level_function(square) == (0, 1, 1, 2)
    assert level_function(build_quiver(["1", "2", "3"], [("a", "2", "1")])) == (0, -1, 0)
    loop = build_quiver(["1"], [("a", "1", "1")], allow_cycles=True)
    assert level_function(loop) is None


def test_euler_form_examples():
    q = a3()
    assert euler_form(q, (1, 1, 0), (1, 1, 1)) == 0
    assert euler_form(q, (1, 1, 1), (1, 1, 1)) == 1
    assert euler_form(q, (0, 0, 0), (2, 5, 1)) == 0
    with pytest.raises(ValueError):
        euler_form(q, (1, 1), (1, 1, 1))


def test_euler_form_matches_matrix_product_randomized():
    rng = Rng(2024)
    q, _ = builtin("e7-highroot")
    e_mat = euler_matrix(q)
    n = q.node_count
    for _ in range(1000):
        e = [rng.randint(0, 6) for _ in range(n)]
        d = [rng.randint(0, 6) for _ in range(n)]
        via_matrix = sum(e[i] * e_mat[i][j] * d[j] for i in range(n) for j in range(n))
        assert euler_form(q, e, d) == via_matrix


def test_tits_form_examples():
    q, d = builtin("e8-central-sink")
    assert tits_form(q, d) == 1
    qd4, dd4 = builtin("tilde-d4-ii")
    assert tits_form(qd4, dd4) == 1
    assert tits_form(qd4, (1, 1, 1, 1, 2)) == 0  # isotropic vector
    assert tits_form(q, (0,) * 8 ) == 0


def _reorient(q, mask):
    arrows = [
        (a.name, a.head, a.tail) if (mask >> i) & 1 else (a.name, a.tail, a.head)
        for i, a in enumerate(q.arrows)
    ]
    return build_quiver(q.nodes, arrows, allow_cycles=True)


def test_tits_form_orientation_invariance():
    rng = Rng(17)
    q, d = builtin("e6-q1")
    base = tits_form(q, d)
    for _ in range(100):
        mask = rng.below(1 << q.arrow_count)
        v = [rng.randint(0, 5) for _ in range(q.node_count)]
        assert tits_form(_reorient(q, mask), v) == tits_form(q, v)
    assert base == 1


def test_cartan_matrix_examples():
    q = build_quiver(["1", "2"], [("a", "1", "2")])
    assert cartan_matrix(q) == [[2, -1], [-1, 2]]
    empty = build_quiver(["1", "2"], [])
    assert cartan_matrix(empty) == [[2, 0], [0, 2]]
    q3 = a3()
    assert cartan_matrix(q3) == cartan_matrix(opposite_quiver(q3))
    assert cartan_matrix(q3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_in_out_degree_e8():
    q, d = builtin("e8-central-sink")
    indeg, outdeg = in_out_degree(q, d)
    c = q.index["3"]
    assert indeg[c] == 12 and outdeg[c] == 0
    left = q.index["1"]
    assert indeg[left] == 0 and outdeg[left] == 4
    empty = build_quiver(["1", "2"], [])
    assert in_out_degree(empty, (3, 4)) == ((0, 0), (0, 0))


def test_in_out_degree_matrix_identities():
    for name in ["a4", "e6-q2", "q3", "star3"]:
        q, d = builtin(name)
        e = euler_matrix(q)
        n = q.node_count
        indeg, outdeg = in_out_degree(q, d)
        de = [sum(d[i] * e[i][j] for i in range(n)) for j in range(n)]
        det_ = [sum(d[i] * e[j][i] for i in range(n)) for j in range(n)]
        assert list(indeg) == [d[j] - de[j] for j in range(n)]
        assert list(outdeg) == [d[j] - det_[j] for j in range(n)]


def test_classify_dynkin_types():
    assert classify_underlying_graph(a3()).label == "A3"
    assert classify_underlying_graph(builtin("d6-prop")[0]).label == "D6"
    assert classify_underlying_graph(builtin("e6-q1")[0]).label == "E6"
    assert classify_underlying_graph(builtin("e7-highroot")[0]).label == "E7"
    assert classify_underlying_graph(builtin("e8-central-sink")[0]).label == "E8"
    assert classify_underlying_graph(builtin("star2")[0]).label == "D4"
    single = build_quiver(["1"], [])
    assert classify_underlying_graph(single).label == "A1"


def test_classify_extended_and_other():
    assert classify_underlying_graph(builtin("tilde-d4-i")[0]).label == "D~4"
    loop = build_quiver(["1"], [("a", "1", "1")], allow_cycles=True)
    assert classify_underlying_graph(loop).label == "Other"
    kron = build_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    assert classify_underlying_graph(kron).label == "A~1"
    cyc = build_quiver(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
        allow_cycles=True,
    )
    assert classify_underlying_graph(cyc).label == "A~2"
    # two-branch extended D: chain of 2 with two leaves at each end
    dd = build_quiver(
        ["1", "2", "3", "4", "5", "6"],
        [
            ("a", "1", "3"),
            ("b", "2", "3"),
            ("c", "3", "4"),
            ("d", "4", "5"),
            ("e", "4", "6"),
        ],
    )
    assert classify_underlying_graph(dd).label == "D~5"
    # extended E6: three arms of length 2
    e6t = build_quiver(
        ["1", "2", "3", "4", "5", "6", "7"],
        [
            ("a", "1", "2"),
            ("b", "2", "7"),
            ("c", "3", "4"),
            ("d", "4", "7"),
            ("e", "5", "6"),
            ("f", "6", "7"),
        ],
    )
    assert classify_underlying_graph(e6t).label == "E~6"
    assert classify_underlying_graph(builtin("q2")[0]).label == "Other"
    assert classify_underlying_graph(builtin("star4")[0]).label == "Other"


def test_classify_disconnected_reports_per_component():
    q = build_quiver(["1", "2", "3"], [("a", "1", "2")])
    result = classify_underlying_graph(q)
    assert isinstance(result, list)
    assert [c.label for c in result] == ["A2", "A1"]
    assert len(connected_components(q)) == 2


def test_support_subquiver():
    q = a3()
    sub, d = support_subquiver(q, (1, 0, 1))
    assert sub.nodes == ("1", "3") and sub.arrow_count == 0 and d == (1, 1)
    sub2, d2 = support_subquiver(q, (1, 1, 1))
    assert sub2.nodes == q.nodes and sub2.arrows == q.arrows and d2 == (1, 1, 1)
    with pytest.raises(ValueError):
        support_subquiver(q, (0, 0, 0))
    # an orthogonal root of the e7 fixture with 4-node support of type D4
    qe7, _ = builtin("e7-highroot")
    sub3, _ = support_subquiver(qe7, (0, 0, 1, 1, 1, 0, 1))
    assert classify_underlying_graph(sub3).label == "D4"


def test_opposite_quiver():
    q = a3()
    opp = opposite_quiver(q)
    assert [(a.tail, a.head) for a in opp.arrows] == [("2", "1"), ("3", "2")]
    assert classify_underlying_graph(opp).label == "A3"
