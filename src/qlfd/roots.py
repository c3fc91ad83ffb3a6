"""Positive roots of Dynkin diagrams, real/imaginary/Schur root tests, roots
orthogonal to a dimension vector, and the semigroup basis that indexes
discriminant components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Rng
from .quiver import (
    Classification,
    Quiver,
    cartan_matrix,
    classify_underlying_graph,
    embed_vector,
    euler_form,
    euler_matrix,
    kac_criterion_applicable,
    support_subquiver,
    tits_form,
)
from .repmatrix import hom_ext_dims, random_representation


def positive_roots(q: Quiver) -> list[tuple[int, ...]]:
    """All positive roots of the underlying Dynkin diagram.

    Breadth-first closure of the simple roots under the simple reflections
    s_i(v) = v - (Cv)_i e_i; vectors with a negative entry are discarded.
    Requires a connected Dynkin quiver (the closure diverges otherwise).
    """
    cls = classify_underlying_graph(q)
    if not (isinstance(cls, Classification) and cls.kind == "dynkin"):
        raise ValueError(f"positive_roots needs a connected Dynkin quiver, got {cls}")
    n = q.node_count
    cartan = cartan_matrix(q)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                pairing = sum(cartan[i][j] * v[j] for j in range(n))
                w = list(v)
                w[i] -= pairing
                w = tuple(w)
                if min(w) >= 0 and w not in found:
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(found)


def highest_root(q: Quiver) -> tuple[int, ...]:
    """The unique componentwise-maximal positive root of a connected Dynkin
    quiver."""
    roots = positive_roots(q)
    top = tuple(max(r[i] for r in roots) for i in range(q.node_count))
    if top not in roots:
        raise ValueError("no componentwise-maximal root; quiver not connected Dynkin?")
    return top


def is_real_root(q: Quiver, d) -> tuple[bool, bool]:
    """(is real, criterion applicable).

    Real means q(d) = 1.  The criterion characterizes roots only when every
    proper subquiver of the support is of finite or tame type; outside that
    hypothesis the answer is flagged heuristic via applicable=False.
    """
    sub, _ = support_subquiver(q, d)
    return tits_form(q, d) == 1, kac_criterion_applicable(sub)


def is_imaginary_root(q: Quiver, d) -> tuple[bool, bool]:
    """(is imaginary, criterion applicable); imaginary means q(d) <= 0."""
    sub, _ = support_subquiver(q, d)
    return tits_form(q, d) <= 0, kac_criterion_applicable(sub)


@dataclass(frozen=True)
class SchurCertificate:
    """Outcome of random sampling for generic endomorphism/extension
    dimensions.  A brick verdict certifies a Schur root (one-sided: random
    points only ever overestimate the generic dimensions)."""

    endomorphism_dim: int
    ext_dim: int
    prime: int
    seed: int
    trials: int
    verdict: str  # "brick" | "not-brick"


def brick_probe(q: Quiver, d, prime: int, seed: int, trials: int = 8) -> SchurCertificate:
    """Sample random representations of dimension vector d over F_prime and
    report the minimal observed dim End and dim Ext^1 (``hom_ext_dims`` of
    the sample with itself).

    Sampling stops at the first sample with dim End = 1, the least value on
    a nonzero d.  Every sample has dim End - dim Ext^1 = <d, d>, so that
    sample also has the least dim Ext^1 any further sample could show.
    """
    if prime <= 2**40:
        raise ValueError("brick_probe needs a prime above 2**40")
    d = tuple(int(x) for x in d)
    rng = Rng(seed)
    dims = []
    for t in range(trials):
        v = random_representation(q, d, prime, rng.split(t).seed)
        dims.append(hom_ext_dims(v, v))
        if dims[-1][0] == 1:
            break
    ends, exts = zip(*dims)
    best_end, best_ext = min(ends), min(exts)
    verdict = "brick" if best_end == 1 else "not-brick"
    return SchurCertificate(best_end, best_ext, prime, seed, trials, verdict)


def orthogonal_roots(q: Quiver, d) -> list[tuple[int, ...]]:
    """Positive roots e of the support diagram with <e, d> = 0, embedded back
    into full-length vectors (zero off the support)."""
    sub, _ = support_subquiver(q, d)
    cls = classify_underlying_graph(sub)
    if not (isinstance(cls, Classification) and cls.kind == "dynkin"):
        raise ValueError("orthogonal_roots needs a Dynkin support")
    out = []
    for r in positive_roots(sub):
        full = embed_vector(q, sub, r)
        if euler_form(q, full, d) == 0:
            out.append(full)
    return out


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
