"""Determinantal semi-invariants of a representation space: weight formulas,
degrees from the weight and a level function, handles built from a generic
witness representation, and witnesses (a tree representation, or drawn at
random) checked on a line and restricted to it by one pencil (which also
gives the degree on an unbalanced cycle).

Weights are not checked at run time.  For every W, V and g in the group,
M(W, g.V) = L_g M(W, V) R_g^{-1} with det L_g / det R_g = prod_x
det(g_x)**w_x, w = -eE, so c^W(g.V) = prod_x det(g_x)**w_x c^W(V) holds
exactly.  The test suite checks that identity on every builtin.  A wrong
weight could not cause a false accept either: the multiplicities a_i and
the degrees come from the weights, and the line certificate checks
Delta = c * prod h_i^{a_i} on the handles themselves, so a wrong a_i or
degree fails that check.
"""

from __future__ import annotations

from .arith import Rng, det, det_pencil_poly
from .quiver import (
    Classification,
    Quiver,
    build_quiver,
    classify_underlying_graph,
    euler_form,
    euler_matrix,
    in_out_degree,
    level_function,
    support_subquiver,
)
from .repmatrix import (
    Representation,
    defect_matrix,
    random_representation,
    sink_reduction,
    tree_representation,
)


def _row_times_matrix(v, m) -> tuple[int, ...]:
    n = len(v)
    return tuple(sum(v[i] * m[i][j] for i in range(n)) for j in range(n))


def weight_of_schofield(q: Quiver, e) -> tuple[int, ...]:
    """Weight of the witness semi-invariant for the orthogonal root e:
    -e E, equivalently -e + indeg_e."""
    e = tuple(int(x) for x in e)
    return tuple(-x for x in _row_times_matrix(e, euler_matrix(q)))


def discriminant_weight(q: Quiver, d) -> tuple[int, ...]:
    """Weight of the discriminant's equation: d (E^T - E) = indeg_d - outdeg_d."""
    indeg, outdeg = in_out_degree(q, d)
    return tuple(a - b for a, b in zip(indeg, outdeg))


def weight_degree(q: Quiver, w, d) -> int | None:
    """Degree sum_x w_x l(x) d_x of a semi-invariant of weight w on
    Rep(Q, d), for a level function l; None when Q has none (an unbalanced
    cycle).  V -> lam V is the group element lam**l(x) at every node x, so
    it scales the semi-invariant by lam**k with k that sum."""
    levels = level_function(q)
    return None if levels is None else sum(a * b * c for a, b, c in zip(w, levels, d))


# ---------------------------------------------------------------------------
# Handles


class SchofieldHandle:
    """Evaluatable polynomial V -> det(defect matrix(W, V)) for a fixed
    witness W over an orthogonal root; homogeneous of the cached degree."""

    def __init__(self, root, witness: Representation, ambient_dims):
        self.root = tuple(root)
        self.witness = witness
        self.quiver = witness.quiver
        self.dims = tuple(ambient_dims)
        if euler_form(self.quiver, self.root, self.dims) != 0:
            raise ValueError("witness root is not orthogonal to the dimension vector")
        self.weight = weight_of_schofield(self.quiver, self.root)
        self.degree: int | None = None
        # square by orthogonality
        self.degree_bound = sum(a * b for a, b in zip(self.root, self.dims))
        self.sinks = sink_reduction(witness, self.dims)

    def evaluate(self, v: Representation):
        return det(defect_matrix(self.witness, v), v.modulus)

    def pencil(self, v0: Representation, v1: Representation):
        """det(M(0, V0) + t M(W, V1)) over V0's field, the pencil of h on the
        line V0 + t V1; None when h(V1) = 0.

        The defect matrix is M(W, V) = B(W) - A(V), linear in each argument,
        and h is homogeneous of some degree k, so with n = ``degree_bound``
        det(M(0, V0) + t M(W, V1)) = t^n h(V1 + V0/t) = t^(n-k) h(V0 + t V1).
        Its leading coefficient is det M(W, V1) = h(V1), so it has full
        degree exactly when h(V1) != 0.

        The pencil runs on ``self.sinks``, the defect matrices without the
        columns of the nodes that the peel of ``repmatrix.SinkReduction``
        takes (the sinks of the support first), of size L = sum over the
        nodes x left of d_x e_x, where M(0, V0) has no zero column.  Its
        coefficients times the constant ``scale`` = +-prod_z
        det(B_z,R)^(d_z (1 + e_z - m_z)), after t^``zeros`` with ``zeros``
        = sum_z d_z e_z, are exactly those of the full pencil.
        """
        red = self.sinks
        if red is None:  # some B_z has rank below e_z: h = 0
            return None
        p = v0.modulus
        f = det_pencil_poly(red.matrix(v0, False), red.matrix(v1), p)
        if f is None:
            return None
        scale = red.scale
        # over Q each c * scale is an integer, a coefficient of the full pencil
        return [0] * red.zeros + [c * scale % p if p is not None else int(c * scale) for c in f]

    def restrict(self, f):
        """h(V0 + t V1) from its pencil f = t^(n-k) h(V0 + t V1), k the
        degree in ``self.degree``; None when f is None, or when a
        coefficient of f below t^(n-k) is nonzero: then k is not the degree.
        """
        low = self.degree_bound - self.degree
        if f is None or low < 0 or any(f[:low]):
            return None
        return f[low:]


# ---------------------------------------------------------------------------
# Witnesses on the certificate line

# A witness is drawn up to this many times before its root counts as one
# whose semi-invariant vanishes identically.
WITNESS_DRAWS = 32


class DegenerateWitnessError(RuntimeError):
    pass


def sample_generic_witness(e, v0: Representation, v1: Representation, seed: int, degree=None):
    """The handle c^W of a witness W over the orthogonal root e with
    c^W(V1) != 0, with its pencil on the line V0 + t V1 (see
    ``SchofieldHandle.pencil``).  Any W in the dense orbit of e gives the
    component: c^W has weight w = -e E, a one-dimensional weight space.

    W is e's tree representation (``tree_representation``) when e has one:
    it lies in the dense orbit, so every other choice there gives the same
    handle up to a scalar, and c^W(V1) = 0 raises DegenerateWitnessError at
    once.  Otherwise W is drawn at random, and redrawn while c^W(V1) = 0.

    ``degree`` is the degree of c^W when the caller knows it.  Without it
    the degree is read off the pencil as k = n - ord_t f: ord_t f is n - k
    plus the order of c^W(V0 + t V1) at 0, so the reading is the degree
    exactly when c^W(V0) != 0, and too low otherwise.
    """
    tree = tree_representation(v0.quiver, e, v0.modulus)
    rng = Rng(seed)
    for attempt in range(1 if tree is not None else WITNESS_DRAWS):
        w = tree or random_representation(v0.quiver, e, v0.modulus, rng.split(attempt, 0).seed)
        h = SchofieldHandle(e, w, v0.dims)
        f = h.pencil(v0, v1)
        if f is not None:
            order = next(i for i, c in enumerate(f) if c)  # ord_t f
            h.degree = h.degree_bound - order if degree is None else degree
            return h, f
    why = ("as its tree witness vanishes at V1" if tree is not None
           else f"after {WITNESS_DRAWS} attempts")
    raise DegenerateWitnessError(f"no generic witness found for root {tuple(e)} {why}")


# ---------------------------------------------------------------------------
# Weight support types


def weight_support_type(q: Quiver, w):
    """Dynkin-type label of a weight: contract away zero-weight nodes, adding
    one composite arrow per (incoming, outgoing) pair, then classify.

    A contraction producing a loop, or parallel composite arrows, is reported
    as Other.
    """
    w = tuple(int(x) for x in w)
    nodes = list(q.nodes)
    arrows = [(a.name, a.tail, a.head) for a in q.arrows]
    weight = {x: w[i] for i, x in enumerate(nodes)}
    for y in list(nodes):
        if weight[y] != 0:
            continue
        ins = [a for a in arrows if a[2] == y and a[1] != y]
        outs = [a for a in arrows if a[1] == y and a[2] != y]
        if any(a[1] == y and a[2] == y for a in arrows):
            return Classification("other")
        composites = []
        for k, (_, t, _) in enumerate(ins):
            for m, (_, _, h) in enumerate(outs):
                if t == h:
                    return Classification("other")
                composites.append((f"via:{y}:{k}:{m}", t, h))
        arrows = [a for a in arrows if a[1] != y and a[2] != y] + composites
        nodes.remove(y)
    if not nodes:
        return Classification("other")
    pairs = {}
    for _, t, h in arrows:
        key = (min(t, h), max(t, h))
        pairs[key] = pairs.get(key, 0) + 1
    if any(c > 1 for c in pairs.values()):
        return Classification("other")
    contracted = build_quiver(nodes, arrows, allow_cycles=True)
    cls = classify_underlying_graph(contracted)
    if isinstance(cls, list):
        return Classification("other")
    return cls


def root_support_type(q: Quiver, e):
    """Dynkin-type label of the full subquiver on the support of e; Other
    when that support is disconnected."""
    cls = classify_underlying_graph(support_subquiver(q, e)[0])
    if isinstance(cls, list):
        return Classification("other")
    return cls
