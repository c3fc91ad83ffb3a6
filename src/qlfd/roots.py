"""Positive roots of Dynkin diagrams, real/imaginary/Schur root tests, roots
orthogonal to a dimension vector, and the semigroup basis that indexes
discriminant components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Rng
from .quiver import (
    Classification,
    Quiver,
    cartan_matrix,
    classify_underlying_graph,
    euler_form,
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
    """
    if prime <= 2**40:
        raise ValueError("brick_probe needs a prime above 2**40")
    d = tuple(int(x) for x in d)
    rng = Rng(seed)
    samples = (random_representation(q, d, prime, rng.split(t).seed) for t in range(trials))
    ends, exts = zip(*(hom_ext_dims(v, v) for v in samples))
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
    keep = [q.index[x] for x in sub.nodes]
    out = []
    for r in positive_roots(sub):
        full = [0] * q.node_count
        for pos, i in enumerate(keep):
            full[i] = r[pos]
        full = tuple(full)
        if euler_form(q, full, d) == 0:
            out.append(full)
    return out


def semigroup_basis(roots) -> list[tuple[int, ...]]:
    """Minimal generating set of the additive semigroup spanned by ``roots``.

    An input element is dropped exactly when it is a sum of two nonzero
    semigroup elements; the semigroup is realized by closing the input list
    under addition inside the componentwise bounding box of the inputs.
    """
    roots = [tuple(r) for r in roots]
    if not roots:
        raise ValueError("semigroup_basis needs a non-empty root list")
    n = len(roots[0])
    box = tuple(max(r[i] for r in roots) for i in range(n))
    closure = set(roots)
    frontier = set(roots)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in closure:
                s = tuple(x + y for x, y in zip(a, b))
                if all(x <= m for x, m in zip(s, box)) and s not in closure:
                    fresh.add(s)
        closure |= fresh
        frontier = fresh
    sums = set()
    closed = list(closure)
    for i, a in enumerate(closed):
        for b in closed[i:]:
            s = tuple(x + y for x, y in zip(a, b))
            if all(x <= m for x, m in zip(s, box)):
                sums.add(s)
    basis = [r for r in roots if r not in sums]
    return sorted(basis)
