"""Determinantal semi-invariants of a representation space: weight formulas,
degrees from the weight and a level function, handles built from a generic
witness representation, hard-coded block-matrix recipes, and witnesses drawn
on a line and restricted to it by one pencil (which also gives the degree on
an unbalanced cycle).

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

from .arith import Rng, det, det_pencil_poly, reduce
from .quiver import (
    Classification,
    Quiver,
    build_quiver,
    classify_underlying_graph,
    euler_form,
    euler_matrix,
    in_out_degree,
    level_function,
)
from .repmatrix import Representation, defect_matrix, random_representation


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

    kind = "schofield"

    def __init__(self, root, witness: Representation, ambient_dims, label: str = ""):
        self.root = tuple(root)
        self.witness = witness
        self.quiver = witness.quiver
        self.dims = tuple(ambient_dims)
        if euler_form(self.quiver, self.root, self.dims) != 0:
            raise ValueError("witness root is not orthogonal to the dimension vector")
        self.weight = weight_of_schofield(self.quiver, self.root)
        self.degree: int | None = None
        self.label = label
        # square by orthogonality
        self.degree_bound = sum(a * b for a, b in zip(self.root, self.dims))

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
        """
        m0 = defect_matrix(self.witness, v0, zero_w=True)
        return det_pencil_poly(m0, defect_matrix(self.witness, v1), v0.modulus)

    def restrict(self, f):
        """h(V0 + t V1) from its pencil f = t^(n-k) h(V0 + t V1), k the
        degree in ``self.degree``; None when f is None, or when a
        coefficient of f below t^(n-k) is nonzero: then k is not the degree.
        """
        low = self.degree_bound - self.degree
        if f is None or low < 0 or any(f[:low]):
            return None
        return f[low:]


class BlockRecipe:
    """A grid of cells assembling a square matrix from arrow-path products.

    Cells are ``None`` (zero block), ``("ident", sign)``, or
    ``(sign, (arrow, ...))`` with the path written in composition order
    (leftmost applied last).  Row and column block sizes are declared and
    every cell is validated against them.
    """

    def __init__(self, q: Quiver, dims, row_sizes, col_sizes, cells):
        self.quiver = q
        self.dims = tuple(dims)
        self.row_sizes = tuple(row_sizes)
        self.col_sizes = tuple(col_sizes)
        if sum(self.row_sizes) != sum(self.col_sizes):
            raise ValueError("block recipe is not square")
        self.cells = tuple(tuple(row) for row in cells)
        if len(self.cells) != len(self.row_sizes) or any(
            len(r) != len(self.col_sizes) for r in self.cells
        ):
            raise ValueError("cell grid does not match declared block sizes")
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                shape = self._cell_shape(cell)
                if shape is None:
                    continue
                if shape != (self.row_sizes[i], self.col_sizes[j]):
                    raise ValueError(f"cell ({i},{j}) has shape {shape}, grid expects "
                                     f"({self.row_sizes[i]}, {self.col_sizes[j]})")
        self.size = sum(self.row_sizes)

    def _cell_shape(self, cell):
        if cell is None:
            return None
        if cell[0] == "ident":
            return None  # square block, fits wherever row and column sizes agree
        _, path = cell
        q, d = self.quiver, self.dims
        for name in path:
            if name not in q.arrow_index:
                raise ValueError(f"unknown arrow {name!r} in block recipe path")
        for a, b in zip(path, path[1:]):
            if q.arrows[q.arrow_index[a]].tail != q.arrows[q.arrow_index[b]].head:
                raise ValueError(f"path {'.'.join(path)} is not composable")
        rows = d[q.heads[q.arrow_index[path[0]]]]
        cols = d[q.tails[q.arrow_index[path[-1]]]]
        return rows, cols

    def path_matrix(self, v: Representation, path):
        m = v.mat(path[-1])
        for name in reversed(path[:-1]):
            left = v.mat(name)
            p = v.modulus
            rows = len(left)
            inner = len(m)
            cols = len(m[0]) if m else 0
            out = [[0] * cols for _ in range(rows)]
            for i in range(rows):
                for k in range(inner):
                    f = left[i][k]
                    if f:
                        mk = m[k]
                        row = out[i]
                        for j in range(cols):
                            row[j] += f * mk[j]
            m = [[reduce(x, p) for x in row] for row in out]
        return m

    def assemble(self, v: Representation):
        n = self.size
        out = [[0] * n for _ in range(n)]
        r0 = 0
        for i, row in enumerate(self.cells):
            c0 = 0
            for j, cell in enumerate(row):
                h, w = self.row_sizes[i], self.col_sizes[j]
                if cell is not None:
                    if cell[0] == "ident":
                        sign = reduce(cell[1], v.modulus)
                        for t in range(min(h, w)):
                            out[r0 + t][c0 + t] = sign
                    else:
                        sign, path = cell
                        block = self.path_matrix(v, path)
                        for r in range(h):
                            for c in range(w):
                                out[r0 + r][c0 + c] = reduce(sign * block[r][c], v.modulus)
                c0 += w
            r0 += h
        return out

    def degree_bound(self) -> int:
        total = 0
        for j, w in enumerate(self.col_sizes):
            longest = 0
            for row in self.cells:
                cell = row[j]
                if cell is not None and cell[0] != "ident":
                    longest = max(longest, len(cell[1]))
            total += w * longest
        return total

    def to_dict(self):
        def enc(cell):
            if cell is None:
                return "0"
            if cell[0] == "ident":
                return f"{'+' if cell[1] > 0 else '-'}I"
            sign, path = cell
            return ("-" if sign < 0 else "") + "".join(path)

        return {
            "row_sizes": list(self.row_sizes),
            "col_sizes": list(self.col_sizes),
            "cells": [[enc(c) for c in row] for row in self.cells],
        }


class BlockHandle:
    """Semi-invariant realized by a hard-coded block-matrix recipe."""

    kind = "block"

    def __init__(self, recipe: BlockRecipe, weight, label: str = ""):
        self.recipe = recipe
        self.quiver = recipe.quiver
        self.dims = recipe.dims
        self.weight = tuple(weight)
        self.degree: int | None = None
        self.label = label
        self.degree_bound = recipe.degree_bound()

    def evaluate(self, v: Representation):
        return det(self.recipe.assemble(v), v.modulus)


# ---------------------------------------------------------------------------
# Witnesses on the certificate line

# A witness is drawn up to this many times before its root counts as one
# whose semi-invariant vanishes identically.
WITNESS_DRAWS = 32


class DegenerateWitnessError(RuntimeError):
    pass


def sample_generic_witness(e, v0: Representation, v1: Representation, seed: int, degree=None):
    """The handle c^W of a random witness W over the orthogonal root e,
    redrawn until c^W(V1) != 0, with its pencil on the line V0 + t V1 (see
    ``SchofieldHandle.pencil``).  Any such W gives the component: c^W has
    weight w = -e E, a one-dimensional weight space.

    ``degree`` is the degree of c^W when the caller knows it.  Without it
    the degree is read off the pencil as k = n - ord_t f: ord_t f is n - k
    plus the order of c^W(V0 + t V1) at 0, so the reading is the degree
    exactly when c^W(V0) != 0, and too low otherwise.
    """
    rng = Rng(seed)
    for attempt in range(WITNESS_DRAWS):
        w = random_representation(v0.quiver, e, v0.modulus, rng.split(attempt, 0).seed)
        h = SchofieldHandle(e, w, v0.dims)
        f = h.pencil(v0, v1)
        if f is not None:
            order = next(i for i, c in enumerate(f) if c)  # ord_t f
            h.degree = h.degree_bound - order if degree is None else degree
            return h, f
    raise DegenerateWitnessError(
        f"no generic witness found for root {tuple(e)} after {WITNESS_DRAWS} attempts"
    )


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
    """Dynkin-type label of the full subquiver on the support of e."""
    keep = [i for i, x in enumerate(e) if x]
    keep_set = set(keep)
    nodes = [q.nodes[i] for i in keep]
    arrows = [
        (a.name, a.tail, a.head)
        for a in q.arrows
        if q.index[a.tail] in keep_set and q.index[a.head] in keep_set
    ]
    sub = build_quiver(nodes, arrows, allow_cycles=True)
    cls = classify_underlying_graph(sub)
    if isinstance(cls, list):
        return Classification("other")
    return cls
