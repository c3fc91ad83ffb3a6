"""The component roots as the pipeline found them before
``perpendicular_simples``, kept as an oracle for it: every real root in the
lattice d-perp when the Tits form is definite there (``lattice_roots``, a
Fincke-Pohst enumeration), those with a nonzero witness value at a random
point (``_nonvanishing_filter``, on non-Dynkin supports only), and the
minimal generators of the semigroup they span (``semigroup_basis``).
``old_components`` chains the three on a definite lattice.
"""

import math
from fractions import Fraction

from qlfd.arith import Rng, det
from qlfd.quiver import (
    Quiver,
    cartan_matrix,
    classify_underlying_graph,
    embed_vector,
    euler_matrix,
    support_subquiver,
)
from qlfd.repmatrix import defect_matrix, random_representation


def old_components(q: Quiver, d, prime: int, seed: int):
    """The old pipeline's component roots of a sincere d, or None when the
    Tits form is not positive definite on d-perp; as there, only a
    non-Dynkin quiver filters its candidates."""
    candidates = lattice_roots(q, d)
    if candidates is None:
        return None
    if classify_underlying_graph(q).kind != "dynkin":
        candidates = _nonvanishing_filter(q, d, candidates, prime, seed)
    return semigroup_basis(candidates) if candidates else []


def lattice_roots(q: Quiver, d) -> list[tuple[int, ...]] | None:
    """Sorted nonnegative, nonzero e supported on supp d with <e, d> = 0 and
    q(e) = 1, embedded into full-length vectors; None when the Tits form is
    not positive definite on L = {e : <e, d> = 0}.

    The simples of the perpendicular category of E_d have real-root
    dimension vectors in L, so on a definite L this list contains them all.
    A Z-basis of L comes from unimodular column operations on the row
    (<e_x, d>)_x; the symmetrized Euler form on that basis is factored as
    LDL^T over Fraction, and every y with y^T G y = 2 is enumerated with
    exact integer bounds (Fincke & Pohst, Math. Comp. 44, 1985).
    """
    sub, dsub = support_subquiver(q, d)
    n = sub.node_count
    e_mat = euler_matrix(sub)
    row = [sum(e_mat[x][y] * dsub[y] for y in range(n)) for x in range(n)]
    basis = _kernel_basis(row)
    cartan = cartan_matrix(sub)
    images = [[sum(cartan[x][y] * b[y] for y in range(n)) for x in range(n)] for b in basis]
    gram = [[sum(a[x] * cb[x] for x in range(n)) for cb in images] for a in basis]
    found = _norm_two_vectors(gram)
    if found is None:
        return None
    out = []
    for y in found:
        e = [sum(c * b[x] for c, b in zip(y, basis)) for x in range(n)]
        if max(e) <= 0:
            e = [-v for v in e]
        if min(e) >= 0:
            out.append(embed_vector(q, sub, e))
    return sorted(out)


def _kernel_basis(row) -> list[list[int]]:
    """A Z-basis of {e : sum_x row[x] e[x] = 0}.  Column operations that add
    an integer multiple of one column to another keep the columns a basis of
    Z^n; they run Euclid's algorithm on the row until one column is left
    with a nonzero entry, and the others span the kernel."""
    n = len(row)
    cols = [[row[x], [int(x == y) for y in range(n)]] for x in range(n)]
    live = [c for c in cols if c[0]]
    while len(live) > 1:
        piv = min(live, key=lambda c: abs(c[0]))
        for c in live:
            if c is not piv:
                k = c[0] // piv[0]
                c[0] -= k * piv[0]
                c[1] = [a - k * b for a, b in zip(c[1], piv[1])]
        live = [c for c in live if c[0]]
    return [c[1] for c in cols if not c[0]]


def _norm_two_vectors(gram) -> list[list[int]] | None:
    """One of each pair +-y of integer vectors with y^T gram y = 2, or None
    when the integer matrix ``gram`` is not positive definite.

    With gram = L D L^T, y^T gram y = sum_j D_j (y_j + c_j)^2 where
    c_j = sum_{i>j} L_ij y_i.  Scaling column j of L by the lcm den_j of its
    denominators and the whole form by M makes every term an integer
    W_j (den_j y_j + s_j)^2, so each coordinate range is an isqrt.
    """
    m = len(gram)
    low = [[Fraction(0)] * m for _ in range(m)]
    diag = []
    for j in range(m):
        dj = Fraction(gram[j][j]) - sum(low[j][k] ** 2 * diag[k] for k in range(j))
        if dj <= 0:
            return None
        diag.append(dj)
        for i in range(j + 1, m):
            acc = gram[i][j] - sum(low[i][k] * low[j][k] * diag[k] for k in range(j))
            low[i][j] = acc / dj
    den = [math.lcm(1, *(low[i][j].denominator for i in range(j + 1, m))) for j in range(m)]
    scaled = [[int(low[i][j] * den[j]) for j in range(m)] for i in range(m)]
    weight = [diag[j] / den[j] ** 2 for j in range(m)]
    big = math.lcm(1, *(w.denominator for w in weight))
    weight = [int(w * big) for w in weight]
    out = []
    y = [0] * m

    def level(j: int, rest: int, leading: bool):
        # leading: y_i = 0 for all i > j, so only y_j >= 0 is enumerated
        if j < 0:
            if rest == 0:
                out.append(list(y))
            return
        s = sum(scaled[i][j] * y[i] for i in range(j + 1, m))
        r = math.isqrt(rest // weight[j])
        lo = 0 if leading else -((s + r) // den[j])
        for v in range(lo, (r - s) // den[j] + 1):
            y[j] = v
            u = den[j] * v + s
            level(j - 1, rest - weight[j] * u * u, leading and v == 0)
        y[j] = 0

    level(m - 1, 2 * big, True)
    return out


def semigroup_basis(roots) -> list[tuple[int, ...]]:
    """Minimal generating set of the additive semigroup spanned by the
    nonnegative, nonzero vectors ``roots``.

    An input element is dropped exactly when it is a sum of two nonzero
    semigroup elements, that is when it equals s + w for an input s and a
    semigroup element w.  Membership is decided by a memoized search that
    subtracts inputs, so it visits only vectors below the element tested.
    """
    roots = [tuple(r) for r in roots]
    if not roots:
        raise ValueError("semigroup_basis needs a non-empty root list")
    inputs = set(roots)
    memo = {}

    def decomposable(v) -> bool:
        if v not in memo:
            memo[v] = False
            for s in inputs:
                if s != v and all(x >= y for x, y in zip(v, s)):
                    w = tuple(x - y for x, y in zip(v, s))
                    if w in inputs or decomposable(w):
                        memo[v] = True
                        break
        return memo[v]

    return sorted(r for r in roots if not decomposable(r))


def _nonvanishing_filter(q: Quiver, d, candidates, prime: int, seed: int):
    """Keep candidates whose witness determinant is nonzero at some random
    point (a certain, one-sided check); two attempts per candidate."""
    rng = Rng(seed)
    kept = []
    for i, e in enumerate(candidates):
        for attempt in range(2):
            w = random_representation(q, e, prime, rng.split(i, attempt, 0).seed)
            v = random_representation(q, d, prime, rng.split(i, attempt, 1).seed)
            if det(defect_matrix(w, v), prime):
                kept.append(e)
                break
    return kept
