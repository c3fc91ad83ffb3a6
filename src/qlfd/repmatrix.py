"""Concrete matrix realizations over a field: representations, the defect
matrix of the fundamental exact sequence, and the action matrix whose
determinant is the discriminant's equation.

For representations W and V of a quiver the sequence

    0 -> Hom(W, V) -> (+)_x Hom(W_x, V_x) -> (+)_a Hom(W_t(a), V_h(a))
      -> Ext^1(W, V) -> 0

is exact, and its middle map is the defect matrix M(W, V).  One builder,
``sink_reduction``, gives both determinants the package needs, from M(W, V)
less the columns of its peeled nodes: every Schofield handle
c^W(V) = det M(W, V), through its pencil on a line, and, at W = V over
F_p, the discriminant det A(V), where A(V), the infinitesimal gl(d) action
at V, is M(V, V) less one column (``action_matrix``).  ``defect_matrix``
builds the full matrix, for ranks and for A(V) itself.

A representation assigns to each arrow a d(head) x d(tail) matrix.  The
field is a prime field (``modulus`` an int, entries in [0, p)) or the exact
rationals (``modulus`` None, entries int/Fraction).  Over Q the matrices
built here only feed determinants, which ``arith.det`` lifts from F_p;
ranks, and so ``hom_ext_dims``, are taken over F_p only.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Rng, _permutation_sign, det, power, rank_mod, reduce
from .quiver import (
    Quiver,
    connected_components,
    is_acyclic,
    support,
    support_subquiver,
    tits_form,
)


class Representation:
    """Per-arrow matrices of a fixed dimension vector over a fixed field."""

    def __init__(self, quiver: Quiver, dims, modulus: int | None, mats):
        self.quiver = quiver
        self.dims = tuple(int(x) for x in dims)
        self.modulus = modulus
        if len(self.dims) != quiver.node_count:
            raise ValueError("dimension vector length mismatch")
        if len(mats) != quiver.arrow_count:
            raise ValueError("one matrix per arrow required")
        for a, m in enumerate(mats):
            rows, cols = self.dims[quiver.heads[a]], self.dims[quiver.tails[a]]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise ValueError(
                    f"matrix for arrow {quiver.arrows[a].name!r} must be {rows}x{cols}"
                )
        self.mats = [[list(row) for row in m] for m in mats]

    def mat(self, arrow_name: str):
        return self.mats[self.quiver.arrow_index[arrow_name]]

    def __repr__(self) -> str:
        field = "QQ" if self.modulus is None else f"F_{self.modulus}"
        return f"Representation(d={self.dims}, {field})"


def random_representation(q: Quiver, d, modulus: int | None, seed: int) -> Representation:
    """Entries uniform over the field (or in [-9, 9] in exact mode), from the
    deterministic stream for ``seed``."""
    rng = Rng(seed)
    d = tuple(d)

    def entry():
        return rng.randint(-9, 9) if modulus is None else rng.below(modulus)

    mats = []
    for a in range(q.arrow_count):
        rows, cols = d[q.heads[a]], d[q.tails[a]]
        mats.append([[entry() for _ in range(cols)] for _ in range(rows)])
    return Representation(q, d, modulus, mats)


def tree_representation(q: Quiver, e, modulus: int | None) -> Representation | None:
    """The 0/1 representation of e shaped like a tree with one centre, or
    None when e has no such shape: the support arrows of e form a tree, at
    most one node z has e_z = m > 1, and z's m + 1 support arrows all point
    into z or all point out of it.

    Every arrow between nodes of dimension 1 gets [1].  The k-th arrow at z,
    in arrow order, gets the basis vector e_k for k <= m, and the last one
    the all-ones vector, as a column into z or a row out of it: Sum_x e_x - 1
    nonzero entries in all (Ringel 1998, "Exceptional modules are tree
    modules").  Every representation of e with nonzero thin arrows and m + 1
    (co)vectors in general position lies in one orbit, the dense one when e
    is a real Schur root, and this is one of them, over F_p and over Q alike.
    """
    e = tuple(int(x) for x in e)
    sub, _ = support_subquiver(q, e)
    # n - 1 arrows that connect n nodes form a tree
    if sub.arrow_count != sub.node_count - 1 or len(connected_components(sub)) != 1:
        return None
    big = [x for x in range(q.node_count) if e[x] > 1]
    at_z, m = [], 0
    if big:
        if len(big) > 1:
            return None
        z, m = big[0], e[big[0]]
        at_z = [a for a, (t, h) in enumerate(zip(q.tails, q.heads))
                if z in (t, h) and e[t] and e[h]]
        if len(at_z) != m + 1 or len({q.heads[a] == z for a in at_z}) != 1:
            return None
    mats = []
    for a in range(q.arrow_count):
        rows, cols = e[q.heads[a]], e[q.tails[a]]
        if a in at_z:
            k = at_z.index(a)
            vec = [int(i == k) for i in range(m)] if k < m else [1] * m
            mats.append([vec] if rows == 1 else [[x] for x in vec])
        else:  # thin, or empty off the support
            mats.append([[1] * cols for _ in range(rows)])
    return Representation(q, e, modulus, mats)


def _check_pair(w: Representation, v: Representation):
    if w.quiver != v.quiver:
        raise ValueError("representations live over different quivers")
    if w.modulus != v.modulus:
        raise ValueError("representations live over different fields")


def defect_matrix(w: Representation, v: Representation):
    """Matrix of the map sending node-wise linear maps (psi_x: W_x -> V_x) to
    their commutation defects psi_head W(a) - V(a) psi_tail along the arrows.

    Columns: node blocks in node order, psi_x entries row-major.  Rows: arrow
    blocks in arrow order, target entries row-major.  It is the middle map
    of the fundamental exact sequence (module docstring): its kernel
    consists of the morphisms W -> V, its cokernel is Ext^1(W, V).  At
    W = V it is the gl(d) action at V, and ``action_matrix`` is M(V, V)
    less the column of one diagonal direction.

    Each row of arrow a takes W(a)'s entries in the psi_head block and
    V(a)'s in the psi_tail block, which are disjoint unless a is a loop, so
    each cell is written once, reduced over F_p.
    """
    _check_pair(w, v)
    q = w.quiver
    e, d = w.dims, v.dims
    p = w.modulus
    col_off = []
    total_cols = 0
    for x in range(q.node_count):
        col_off.append(total_cols)
        total_cols += d[x] * e[x]
    m = []
    for a in range(q.arrow_count):
        t, h = q.tails[a], q.heads[a]
        eh, et = e[h], e[t]
        wa = w.mats[a]
        # column s of W(a) and row r of -V(a)
        wcols = [[wa[j][s] for j in range(eh)] for s in range(et)]
        vrows = [[-x for x in row] for row in v.mats[a]]
        if p is not None:
            wcols = [[x % p for x in col] for col in wcols]
            vrows = [[x % p for x in row] for row in vrows]
        tail = col_off[t]
        tail_end = tail + d[t] * et
        for r, vrow in enumerate(vrows):
            head = col_off[h] + r * eh
            for s in range(et):
                row = [0] * total_cols
                # + (psi_h W(a))[r, s]: coefficient W(a)[j, s] at psi_h[r, j]
                row[head:head + eh] = wcols[s]
                # - (V(a) psi_t)[r, s]: coefficient -V(a)[r, i] at psi_t[i, s]
                row[tail + s:tail_end:et] = vrow
                if h == t:  # a loop: both blocks meet at psi[r, s]
                    row[head + s] = reduce(wcols[s][s] + vrow[r], p)
                m.append(row)
    return m


def hom_ext_dims(w: Representation, v: Representation) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) at the given pair over F_p, by rank of the
    defect matrix; their difference is the Euler form of the dimension
    vectors.  There is no rank over Q: a pair over Q is a ValueError."""
    if w.modulus is None:
        raise ValueError("hom_ext_dims needs representations over F_p")
    q = w.quiver
    m = defect_matrix(w, v)
    cols = sum(a * b for a, b in zip(w.dims, v.dims))
    rows = sum(w.dims[t] * v.dims[h] for t, h in zip(q.tails, q.heads))
    r = rank_mod(m, w.modulus)
    return cols - r, rows - r


# ---------------------------------------------------------------------------
# The defect matrix without the columns of its peeled nodes


def _row_basis(b, k: int, p: int | None):
    """(R, det B_R, g) for the rows of B, an m x k matrix over F_p or Q:
    R the first k linearly independent rows in order, and for every other
    row i, g[i] its coefficients in the rows of R times det B_R, so that
    det B_R * B_i = sum_j g[i][j] * B_{R_j}; over Q, for integer B, these
    are integers (det B_R * B_R^-1 is the adjugate).  None when B has rank
    below k.

    One pass of row reduction, each row against the rows of R before it,
    tracking its combination of those rows.  The rows of R so reduced are
    T B_R with T unit lower triangular, and with their columns in pivot
    order they are upper triangular, so det B_R is the product of the
    pivots times the sign of that order.
    """
    def axpy(f, x, y):  # f x + y in the field
        if p is None:
            return [f * a + b for a, b in zip(x, y)]
        return [(f * a + b) % p for a, b in zip(x, y)]

    basis = []  # (pivot column, row scaled to 1 there, its combination of R)
    chosen, pivots, combos = [], [], {}
    det, zeros = 1, [0] * k
    for i, row in enumerate(b):
        comb = zeros  # row now = B_i + sum_j comb[j] * B_{R_j}
        for c, brow, bcomb in basis:
            f = row[c]
            if f:
                row = axpy(-f, brow, row)
                comb = axpy(-f, bcomb, comb)
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            combos[i] = [-x for x in comb]
            continue
        comb = comb[:len(chosen)] + [1] + comb[len(chosen) + 1:]
        v = row[c]
        det = reduce(det * v, p)
        inv = 1 / Fraction(v) if p is None else pow(v, -1, p)
        basis.append((c, axpy(inv, row, zeros), axpy(inv, comb, zeros)))
        chosen.append(i)
        pivots.append(c)
    if len(chosen) < k:
        return None
    det = reduce(int(det) * _permutation_sign(pivots), p)
    return chosen, det, {i: [reduce(int(det * x), p) for x in g] for i, g in combos.items()}


class SinkReduction:
    """M(W, V) for a fixed witness W with the columns of its peeled nodes
    taken out by a Schur complement that does not depend on V.

    The peel starts at the sinks of the support: a node z with d_z, e_z > 0
    goes once every arrow out of z into the support of d ends at a node
    already gone whose block is square.  The columns psi_z meet the rows of
    arrows a -> z, where psi_z[r, :] has the coefficients W(a)[:, s] in row
    (a, r, s): d_z copies of one block B_z, with m_z rows (a, s) and
    entries W(a)^T.  Otherwise they meet only the rows of arrows z -> y,
    and y went before z with m_y = e_y, so all those rows are pivot rows of
    y.  With R the first e_z independent rows of B_z (``_row_basis``; the
    identity for a tree witness) and delta = det B_R, each row (a, r, s)
    outside R becomes delta * C(a, r, s) - sum_j g_j C(R_j, r), where C is
    the row on the other columns (-V(a)[r, i] at psi_t[i, s]) and g =
    delta * B_(a,s) B_R^-1 is integral over Q.  Such rows exist only when
    m_z > e_z, and then no peeled node has an arrow into z, so C lies on
    the columns that stay.  The rows of arrows into other nodes stay.  The
    result, ``matrix``, has ``size`` = L = sum over the nodes x left of
    d_x e_x rows and columns, both in the order of M(W, V).

    Moving the rows of R and the peeled columns to the front, both in peel
    order, makes M(W, V) block triangular after the elimination, with the
    copies of B_R on the diagonal, so det M(W, V) = sign * prod_z
    delta_z^(d_z) * det(Schur complement), and each of the d_z (m_z - e_z)
    rows outside R was scaled by delta_z: det M(W, V) = ``scale`` * det
    ``matrix``(V).  The pencil M(0, V0) + t M(W, V1) is M(tW, V0 + t V1),
    whose delta_z is t^(e_z) delta_z and whose rows outside R are t^(e_z)
    times those of W, so det(M(0, V0) + t M(W, V1)) = ``scale`` *
    t^``zeros`` * det(``matrix``(V0, False) + t ``matrix``(V1)), with
    ``zeros`` = sum_z d_z e_z.

    The peel takes every column where M(0, V0) is zero for all V0: the
    columns of a node x left are read by V0 in the rows of some arrow
    x -> y into the support, and those rows reach ``matrix`` unless y
    went with a square block.

    With a ``drop`` node x, ``sink_reduction`` never peels x and leaves
    the column of psi_x[0, 0] out of ``matrix``, so ``size`` = L - 1, and
    out of the column order whose sign ``scale`` takes; the other columns
    keep their order.  At W = V, with x the node ``action_matrix`` drops,
    M(V, V) less that column is A(V), square since q(d) = 1, and the
    elimination above is the same Schur complement: the dropped column lies
    at a node left, among the columns that stay, so the proof holds as it
    stands and det A(V) = ``scale`` * det ``matrix``(V) in every field.

    ``sink_reduction`` returns None when some B_z has rank below e_z: then
    M(W, V), and at W = V A(V), is singular for every V.  Take the first
    such z in peel order.  The columns of z and of the peeled nodes
    downstream of it meet only the rows of the arrows into those nodes;
    there the square blocks below z are invertible and come first, so the
    copies of B_z leave those columns of rank below their number.
    """

    def __init__(self, size: int, zeros: int, scale, rows, modulus: int | None,
                 dropped: int | None = None):
        self.size = size
        self.zeros = zeros
        self.scale = scale
        self.rows = rows  # per row: (r, [(coef, arrow, column, stride)], [(column, W entry)])
        self.modulus = modulus
        self.dropped = dropped  # psi_drop[0, 0]'s column among the L, left out

    def matrix(self, v: Representation, with_w: bool = True):
        """The reduced M(W, V), or M(0, V) with ``with_w`` False."""
        p, k = self.modulus, self.dropped
        width = self.size + (k is not None)
        out = []
        for r, vterms, wterms in self.rows:
            row = [0] * width
            if with_w:
                for c, x in wterms:
                    row[c] += x
            for coef, a, c, stride in vterms:
                for x in v.mats[a][r]:
                    row[c] += coef * x
                    c += stride
            if k is not None:
                del row[k]
            out.append(row if p is None else [x % p for x in row])
        return out


def sink_reduction(w: Representation, d, drop: int | None = None) -> SinkReduction | None:
    """The ``SinkReduction`` of the witness W against Rep(Q, d), less the
    column of psi[0, 0] at node ``drop`` when one is given."""
    q, e, p = w.quiver, w.dims, w.modulus
    d = tuple(int(x) for x in d)
    heads, tails = q.heads, q.tails
    arrows = range(q.arrow_count)
    # m_x, the rows of B_x; a node goes once every arrow out of it into the
    # support of d ends at a peeled node whose block is square
    m = [sum(e[tails[a]] for a in arrows if heads[a] == x) for x in range(q.node_count)]
    peel = []
    while new := [z for z in range(q.node_count) if d[z] and e[z] and z not in peel and z != drop
                  and all(heads[a] in peel and m[heads[a]] == e[heads[a]]
                          for a in arrows if tails[a] == z and d[heads[a]])]:
        peel += new
    # columns of M(W, V), and of the reduced matrix off the peeled nodes
    full, col = [], {}
    n = size = 0
    for x in range(q.node_count):
        full.append(n)
        n += d[x] * e[x]
        if x not in peel:
            col[x] = size
            size += d[x] * e[x]
    row_off, n = [], 0
    for a in arrows:
        row_off.append(n)
        n += d[heads[a]] * e[tails[a]]

    def vterm(coef, a, s):  # coef times the row C(a, r, s), for any r
        return coef, a, col[tails[a]] + s, e[tails[a]]

    # per peeled node: the rows R of B_z and the reduced rows outside R
    blocks = {}
    cols = ([full[z] + i for z in peel for i in range(d[z] * e[z])]
            + [full[x] + i for x in col for i in range(d[x] * e[x])])
    if drop is not None:
        k = full[drop]
        cols = [c - (c > k) for c in cols if c != k]
    scale = _permutation_sign(cols)
    for z in peel:
        keys = [(a, s) for a in arrows if heads[a] == z for s in range(e[tails[a]])]
        basis = _row_basis([[reduce(w.mats[a][j][s], p) for j in range(e[z])]
                            for a, s in keys], e[z], p)
        if basis is None:
            return None
        chosen, delta, g = basis
        scale *= power(delta, d[z] * (1 + e[z] - len(keys)), p)
        pivots = [keys[i] for i in chosen]
        blocks[z] = pivots, {
            keys[i]: [vterm(-delta, *keys[i])] + [vterm(c, *k) for k, c in zip(pivots, gi) if c]
            for i, gi in g.items()
        }
    rows, kept = [], []
    for a in arrows:
        t, h = tails[a], heads[a]
        for r in range(d[h]):
            for s in range(e[t]):
                if h in blocks:
                    terms = blocks[h][1].get((a, s))
                    if terms is None:  # a row of R
                        continue
                    rows.append((r, terms, ()))
                else:
                    wterms = [(col[h] + r * e[h] + j, reduce(w.mats[a][j][s], p))
                              for j in range(e[h])]
                    rows.append((r, [vterm(-1, a, s)], [x for x in wterms if x[1]]))
                kept.append(row_off[a] + r * e[t] + s)
    # rows R of each copy of B_z first, in the order of the peeled columns
    scale *= _permutation_sign(
        [row_off[a] + r * e[tails[a]] + s
         for z in peel for r in range(d[z]) for a, s in blocks[z][0]] + kept
    )
    dropped = None if drop is None else col[drop]
    return SinkReduction(size - (drop is not None), sum(d[z] * e[z] for z in peel),
                         reduce(scale, p), rows, p, dropped)


# ---------------------------------------------------------------------------
# Representation-space coordinates and the infinitesimal action


class RepCoordinates:
    """Fixed bijection between arrow-matrix entries and coordinates 0..N-1:
    arrows in declaration order, entries row-major within each arrow."""

    def __init__(self, q: Quiver, d):
        self.quiver = q
        self.dims = tuple(int(x) for x in d)
        self.offsets = []
        n = 0
        for a in range(q.arrow_count):
            self.offsets.append(n)
            n += self.dims[q.tails[a]] * self.dims[q.heads[a]]
        self.total = n

    def unflatten(self, vec, modulus: int | None) -> Representation:
        q = self.quiver
        mats = []
        pos = 0
        for a in range(q.arrow_count):
            rows, cols = self.dims[q.heads[a]], self.dims[q.tails[a]]
            m = [[vec[pos + r * cols + c] for c in range(cols)] for r in range(rows)]
            pos += rows * cols
            mats.append(m)
        return Representation(q, self.dims, modulus, mats)


class LinearFormMatrix:
    """The action matrix A of Rep(Q, d) as a function of the coordinates:
    A(V) is M(V, V) without the column of psi[0, 0] at node ``drop``.
    Every entry of M(V, V) is 0 or a signed coordinate of V, so each entry
    of A is a linear form with zero constant term."""

    def __init__(self, size: int, coords: RepCoordinates, drop: int):
        self.size = size
        self.coords = coords
        self.drop = drop

    def evaluate(self, vec, modulus: int | None):
        v = self.coords.unflatten(vec, modulus)
        m = defect_matrix(v, v)
        k = sum(x * x for x in self.coords.dims[:self.drop])
        for row in m:
            del row[k]
        return m

    def det(self, vec, p: int | None):
        """det A(V) over F_p, or over Q when ``p`` is None.

        Over F_p it runs on the ``SinkReduction`` of M(V, V) at W = V less
        the dropped column, and is 0 when some B_z has rank below d_z,
        since then A(V) is singular.  Over Q the full A(V) is lifted: the
        peel's rows outside R, scaled by det B_R, raise the Hadamard bound
        that sets the number of CRT primes, and ``_row_basis`` runs on
        fractions, which costs more than the few columns the peel saves on
        the Dynkin supports that exact mode certifies.
        """
        if p is None:
            return det(self.evaluate(vec, p), p)
        v = self.coords.unflatten(vec, p)
        red = sink_reduction(v, self.coords.dims, self.drop)
        if red is None:
            return 0
        return red.scale * det(red.matrix(v), p) % p


def action_matrix(q: Quiver, d, drop_node: str | None = None) -> LinearFormMatrix:
    """Matrix of the infinitesimal gl(d) action on Rep(Q, d): A(V) is the
    defect matrix M(V, V) less the column of psi[0, 0] at ``drop_node``
    (default: the first support node), which is column sum_{x < drop} d_x^2.

    Column psi_x[i, j] is the direction E^{(x)}_{ij} of gl(d), and its
    vector field at V is + E_ij V(a) on the arrows a into x and - V(a) E_ij
    on the arrows out of x; rows are the coordinates of Rep(Q, d), arrows in
    order, entries row-major.  The identity of gl(d) acts as 0, so the
    dropped column lies in the span of the others, and with q(d) = 1 the
    matrix is square, of size N = dim Rep.  Its determinant is the
    discriminant's equation up to a nonzero scalar.
    """
    d = tuple(int(x) for x in d)
    if not is_acyclic(q):
        raise ValueError("action_matrix needs an acyclic quiver")
    if tits_form(q, d) != 1:
        raise ValueError("action_matrix needs a dimension vector with q(d) = 1")
    supp = support(d)
    if not supp:
        raise ValueError("zero dimension vector")
    if drop_node is None:
        drop = supp[0]
    else:
        drop = q.index[drop_node]
        if d[drop] == 0:
            raise ValueError("dropped scalar direction must sit at a support node")
    coords = RepCoordinates(q, d)
    return LinearFormMatrix(coords.total, coords, drop)
