"""Concrete matrix realizations over a field: representations, the defect
matrix of the fundamental exact sequence, and the infinitesimal-action
matrix whose determinant is the discriminant's equation.

A representation assigns to each arrow a d(head) x d(tail) matrix.  The
field is a prime field (``modulus`` an int, entries in [0, p)) or the exact
rationals (``modulus`` None, entries int/Fraction).
"""

from __future__ import annotations

from .arith import Rng, rank, reduce
from .quiver import Quiver, is_acyclic, support, tits_form


def _zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


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


def _check_pair(w: Representation, v: Representation):
    if w.quiver != v.quiver:
        raise ValueError("representations live over different quivers")
    if w.modulus != v.modulus:
        raise ValueError("representations live over different fields")


def defect_matrix(w: Representation, v: Representation, zero_w: bool = False):
    """Matrix of the map sending node-wise linear maps (psi_x: W_x -> V_x) to
    their commutation defects psi_head W(a) - V(a) psi_tail along the arrows.

    Columns: node blocks in node order, psi_x entries row-major.  Rows: arrow
    blocks in arrow order, target entries row-major.  Its kernel consists of
    the morphisms W -> V; its cokernel is the space of extensions.  With
    ``zero_w`` it is M(0, V) for the zero representation of W's dimension
    vector: W's entries are left out.

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
                if not zero_w:
                    row[head:head + eh] = wcols[s]
                # - (V(a) psi_t)[r, s]: coefficient -V(a)[r, i] at psi_t[i, s]
                row[tail + s:tail_end:et] = vrow
                if h == t and not zero_w:  # a loop: both blocks meet at psi[r, s]
                    row[head + s] = reduce(wcols[s][s] + vrow[r], p)
                m.append(row)
    return m


def hom_ext_dims(w: Representation, v: Representation) -> tuple[int, int]:
    """(dim Hom, dim Ext^1) at the given pair, by rank of the defect matrix;
    their difference is the Euler form of the dimension vectors."""
    q = w.quiver
    m = defect_matrix(w, v)
    cols = sum(a * b for a, b in zip(w.dims, v.dims))
    rows = sum(w.dims[t] * v.dims[h] for t, h in zip(q.tails, q.heads))
    r = rank(m, w.modulus)
    return cols - r, rows - r


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

    def index(self, arrow: int, r: int, c: int) -> int:
        return self.offsets[arrow] + r * self.dims[self.quiver.tails[arrow]] + c

    def flatten(self, v: Representation) -> list:
        out = []
        for m in v.mats:
            for row in m:
                out.extend(row)
        return out

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
    """Square matrix whose entries are linear forms (with zero constant term)
    in the representation coordinates.

    Every cell here is empty or a single signed coordinate, stored sparsely
    as (coordinate, sign) against its (row, column) position.
    """

    def __init__(self, size: int, cells, coords: RepCoordinates, dropped):
        self.size = size
        self.cells = cells  # dict[(row, col)] -> list[(coord, sign)]
        self.coords = coords
        self.dropped = dropped  # (node, i, j) of the removed scalar direction

    def evaluate(self, vec, modulus: int | None):
        m = _zeros(self.size, self.size)
        for (r, c), terms in self.cells.items():
            acc = 0
            for k, sign in terms:
                acc += sign * vec[k]
            m[r][c] = acc % modulus if modulus is not None else acc
        return m


def action_matrix(q: Quiver, d, drop_node: str | None = None) -> LinearFormMatrix:
    """Matrix of the infinitesimal group action on the representation space.

    Columns are indexed by the elementary-matrix directions E^{(x)}_{ij}
    (node order, entries row-major) with the single direction E_{11} at
    ``drop_node`` (default: first support node) removed; rows are indexed by
    the representation coordinates.  The determinant is the discriminant's
    equation up to a nonzero scalar.
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
    size = coords.total
    by_head = [[] for _ in range(q.node_count)]
    by_tail = [[] for _ in range(q.node_count)]
    for a in range(q.arrow_count):
        by_head[q.heads[a]].append(a)
        by_tail[q.tails[a]].append(a)
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    col = 0
    for x in range(q.node_count):
        for i in range(d[x]):
            for j in range(d[x]):
                if x == drop and i == 0 and j == 0:
                    continue
                # vector field of E^{(x)}_{ij}: + E_ij V(a) on arrows into x,
                # - V(a) E_ij on arrows out of x
                for a in by_head[x]:
                    t = q.tails[a]
                    for s in range(d[t]):
                        row = coords.index(a, i, s)
                        cells.setdefault((row, col), []).append((coords.index(a, j, s), 1))
                for a in by_tail[x]:
                    h = q.heads[a]
                    for r in range(d[h]):
                        row = coords.index(a, r, j)
                        cells.setdefault((row, col), []).append((coords.index(a, r, i), -1))
                col += 1
    if col != size:
        raise AssertionError("action matrix is not square despite q(d) = 1")
    return LinearFormMatrix(size, cells, coords, (q.nodes[drop], 0, 0))
