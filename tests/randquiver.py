"""Seeded random acyclic quivers with real roots, for property tests.

Each quiver is a random tree, every node after the first joined to an
earlier one by an arrow of random direction, plus at most one extra arrow
oriented along a topological order, so it stays acyclic; when it closes a
cycle with unequal numbers of arrows each way there is no level function,
as on the ``cycle3`` triangle.  The dimension vector is drawn from [1, 4]^n
until q(d) = 1.  ``is_schur`` tells the Schur roots among them.  Standard
library and ``qlfd`` only.
"""

from qlfd.arith import DEFAULT_PRIME, Rng, det_mod
from qlfd.quiver import build_quiver, tits_form, topological_order
from qlfd.repmatrix import action_matrix


def random_quiver(rng: Rng, n: int, extra: bool):
    arrows = []
    for y in range(1, n):
        x = rng.below(y)
        tail, head = (x, y) if rng.below(2) else (y, x)
        arrows.append((tail, head))
    q = _quiver(n, arrows)
    if extra:
        rank = {x: i for i, x in enumerate(topological_order(q))}
        x, y = rng.below(n), rng.below(n - 1)
        y += y >= x
        arrows.append((x, y) if rank[x] < rank[y] else (y, x))
        q = _quiver(n, arrows)
    return q


def _quiver(n: int, arrows):
    return build_quiver(
        [str(i) for i in range(n)],
        [(f"a{i}", str(t), str(h)) for i, (t, h) in enumerate(arrows)],
        name="random",
    )


def random_real_roots(seed: int, count: int, sizes=range(3, 8)):
    """``count`` pairs (q, d): a quiver of ``random_quiver``, its size drawn
    from ``sizes`` and an extra arrow on every other one, with a sincere
    d in [1, 4]^n and q(d) = 1 (30 draws of d per quiver at most)."""
    rng = Rng(seed)
    sizes = list(sizes)
    out = []
    while len(out) < count:
        q = random_quiver(rng, sizes[rng.below(len(sizes))], rng.below(2) == 1)
        for _ in range(30):
            d = tuple(1 + rng.below(4) for _ in range(q.node_count))
            if tits_form(q, d) == 1:
                out.append((q, d))
                break
    return out


def is_schur(q, d, seed: int) -> bool:
    """Whether the real root d of the acyclic quiver q is a Schur root, by
    det A(V) != 0 at one random V over the default prime field: with
    q(d) = 1, rank A(V) = dim Rep + 1 - dim End V.  A Schur root fails only
    when V lands on the discriminant, with probability at most
    dim Rep / p."""
    lfm = action_matrix(q, d)
    rng = Rng(seed)
    vec = [rng.below(DEFAULT_PRIME) for _ in range(lfm.coords.total)]
    return det_mod(lfm.evaluate(vec, DEFAULT_PRIME), DEFAULT_PRIME) != 0
