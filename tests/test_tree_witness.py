"""Tree witnesses: the 0/1 representation ``tree_representation`` builds for
a root whose support is a tree with at most one node of dimension m > 1,
whose m + 1 arrows all point into it or all out of it.  Such a witness is
exceptional, has one nonzero entry fewer than the root's total dimension,
and gives the same handle as a dense random witness up to a scalar."""

import importlib

import pytest

from qlfd.arith import DEFAULT_PRIME, Rng, power, reduce
from qlfd.fixtures import builtin, builtin_names
from qlfd.quiver import build_quiver, support_subquiver
from qlfd.repmatrix import (
    Representation,
    hom_ext_dims,
    random_representation,
    tree_representation,
)
from qlfd.roots import perpendicular_simples
from qlfd.semiinv import (
    DegenerateWitnessError,
    SchofieldHandle,
    sample_generic_witness,
    weight_degree,
    weight_of_schofield,
)

from randquiver import is_schur, random_real_roots

P = DEFAULT_PRIME

# roots with a tree witness, out of all component roots, per builtin
TREE_ROOTS = {
    "e8-central-sink": (4, 7),
    "e6-q1": (4, 5),
    "e6-q2": (4, 5),
    "e7-highroot": (5, 6),
    "q1": (5, 5),
    "q2": (1, 6),
    "q3": (3, 6),
    "tilde-d4-i": (4, 4),
    "tilde-d4-ii": (3, 4),
    "tilde-d4-iii": (4, 4),
}


def _components(name):
    q, d = builtin(name)
    q0, d0 = support_subquiver(q, d)
    return q0, d0, perpendicular_simples(q0, d0)


def _nonzeros(w):
    return sum(1 for m in w.mats for row in m for x in row if x)


def _assert_exceptional_tree(q, e):
    w = tree_representation(q, e, P)
    assert w is not None
    assert hom_ext_dims(w, w) == (1, 0), (q.arrows, e)
    assert _nonzeros(w) == sum(e) - 1, (q.arrows, e)
    assert all(x in (0, 1) for m in w.mats for row in m for x in row)


@pytest.mark.parametrize("name", [n for n in builtin_names() if n != "tilde-d4-iv"])
def test_tree_roots_per_builtin(name):
    # a_n, d_n-prop and star_n have a tree witness for every root
    q, _, simples = _components(name)
    trees = [e for e in simples if tree_representation(q, e, P) is not None]
    assert (len(trees), len(simples)) == TREE_ROOTS.get(name, (len(simples),) * 2)
    for e in trees:
        _assert_exceptional_tree(q, e)


def test_tree_witnesses_of_star14_and_random_bricks_are_exceptional():
    q, _, simples = _components("star14")
    for e in simples:
        _assert_exceptional_tree(q, e)
    trees = 0
    for seed in range(2, 6):
        for i, (q, d) in enumerate(random_real_roots(seed, 100)):
            if not is_schur(q, d, seed=i):
                continue
            for e in perpendicular_simples(q, d):
                if tree_representation(q, e, P) is not None:
                    _assert_exceptional_tree(q, e)
                    trees += 1
    assert trees == 488


def test_no_tree_witness_on_a_mixed_centre():
    # two arrows in and two out of the centre of dimension 3: a frame there
    # has End 3, so no tree witness is built
    q, d = builtin("tilde-d4-ii")
    assert d == (1, 1, 1, 1, 3)
    assert tree_representation(q, d, P) is None
    assert tree_representation(q, d, None) is None
    # a cycle, two centres, or a centre with the wrong number of arrows
    cycle = build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    assert tree_representation(cycle, (1, 1, 1), P) is None
    assert tree_representation(cycle, (1, 1, 0), P) is not None
    q8, _ = builtin("e8-central-sink")
    assert tree_representation(q8, (1, 1, 2, 2, 1, 1, 1, 1), P) is None
    star, _ = builtin("star3")
    assert tree_representation(star, (1, 1, 0, 0, 2), P) is None
    assert tree_representation(star, (1, 1, 1, 0, 2), P) is not None


@pytest.mark.parametrize("name", ["tilde-d4-i", "tilde-d4-ii", "tilde-d4-iii", "tilde-d4-iv"])
def test_tree_witness_does_not_depend_on_the_arrow_order(name):
    # the all-ones vector goes to the last arrow at the centre, but which
    # arrow is last only moves the witness inside its orbit, and whether
    # there is a witness depends on the orientation alone
    q, d = builtin(name)
    arrows = [(a.name, a.tail, a.head) for a in q.arrows]
    found = set()
    for k in range(len(arrows)):
        w = tree_representation(build_quiver(q.nodes, arrows[k:] + arrows[:k]), d, P)
        found.add(w is not None)
        if w is not None:
            assert hom_ext_dims(w, w) == (1, 0)
    assert found == {name == "tilde-d4-i"}


@pytest.mark.parametrize(
    "name, p",
    [("e8-central-sink", P), ("star7", P), ("q3", P), ("e7-highroot", P),
     ("d5-prop", None), ("e6-q1", None)],
)
def test_tree_handle_is_a_multiple_of_a_dense_handle(name, p):
    q, d, simples = _components(name)
    rng = Rng(31)
    v0, v1 = (random_representation(q, d, p, rng.split(i).seed) for i in range(2))
    trees = [e for e in simples if tree_representation(q, e, p) is not None]
    assert trees
    for e in trees:
        k = weight_degree(q, weight_of_schofield(q, e), d)

        def restricted(w):
            h = SchofieldHandle(e, w, d)
            h.degree = k
            return h.restrict(h.pencil(v0, v1))

        tree = restricted(tree_representation(q, e, p))
        assert tree is not None and len(tree) == k + 1
        # over Q a dense entry is 0 with probability 1/19: redraw as the
        # witness sampler does on a root with no tree witness
        dense = next(
            f for f in (restricted(random_representation(q, e, p, s)) for s in range(8))
            if f is not None
        )
        c = reduce(tree[-1] * power(dense[-1], -1, p), p)
        assert c != 0
        assert tree == [reduce(c * x, p) for x in dense], (name, e)


def test_a_tree_witness_is_never_redrawn(monkeypatch):
    # every witness in the dense orbit gives the same handle up to a
    # scalar, so h(V1) = 0 stops the sampler after one pencil
    semiinv = importlib.import_module("qlfd.semiinv")
    pencils = []
    pencil = semiinv.det_pencil_poly
    monkeypatch.setattr(
        semiinv, "det_pencil_poly", lambda m0, m1, p: pencils.append(1) or pencil(m0, m1, p)
    )
    q, d, simples = _components("star5")
    e = simples[0]
    assert tree_representation(q, e, P) is not None and max(e) == 4
    v0 = random_representation(q, d, P, 5)
    v1 = Representation(q, d, P, [[[0] * d[t] for _ in range(d[h])]
                                  for t, h in zip(q.tails, q.heads)])
    with pytest.raises(DegenerateWitnessError, match="tree witness vanishes"):
        sample_generic_witness(e, v0, v1, seed=7)
    assert len(pencils) == 1
