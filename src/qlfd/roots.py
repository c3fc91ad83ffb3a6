"""Positive roots of Dynkin diagrams, roots orthogonal to a dimension
vector, and the simples of the perpendicular category of a general
representation, which index the discriminant's components.
"""

from __future__ import annotations

import heapq

from .quiver import (
    Classification,
    Quiver,
    cartan_matrix,
    classify_underlying_graph,
    embed_vector,
    euler_form,
    is_acyclic,
    support_subquiver,
    tits_form,
)

# Most (orientation, dimension vector) states one ``perpendicular_simples``
# call may visit in its search for an (A) or (D) move.
MAX_REFLECTION_STATES = 10_000


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


def perpendicular_simples(q: Quiver, d) -> list[tuple[int, ...]]:
    """Sorted dimension vectors of the n - 1 simple objects of the category
    perp(E) = {W : Hom(W, E) = Ext(W, E) = 0} of a general representation E
    of the real Schur root d of the acyclic quiver q (Schofield 1991): the
    semi-invariants c^W, W in perp(E), are the ones nonzero at E, and the
    simples give the components of the discriminant.

    Three moves on (orientation, d) alone:
    (A) d = e_z: W is in perp(S_z) exactly when the arrows into z give a
        bijection from the sum of their tails onto W_z, so the simples are
        e_y + #(arrows y -> z) e_z for y != z.
    (D) <e_z, d> = 0 for some z: the map from E_z to the sum over arrows
        z -> y is then bijective, so S_z is a simple, and E lies in
        S_z^perp, which is rep Q^z: q without z plus one arrow t -> y for
        each path t -> z -> y.  A simple X of the recursion on Q^z lifts by
        X_z = sum over arrows z -> y of X_y, less max(0, <X, e_z>) e_z, which
        leaves X_z = min(sum over z -> y of X_y, sum over t -> z of X_t).
    (R) otherwise no S_x lies in perp(E), so at every sink or source x the
        APR tilt maps perp(E) onto perp(E') for E' of dimension s_x d on the
        reflected orientation, simples to simples; the Cartan reflection s_x
        maps the answer back.
    The search for an (A) or (D) state takes states in order of |d|, so a
    reflection that lowers |d| goes first.  Termination is not proven for
    regular roots on wild supports: past ``MAX_REFLECTION_STATES`` states,
    or on a d that is not a positive real root, ValueError is raised.
    """
    d = tuple(int(x) for x in d)
    if not is_acyclic(q) or tits_form(q, d) != 1 or min(d) < 0:
        raise ValueError(
            "perpendicular_simples needs a positive real root of an acyclic quiver"
        )
    budget = [MAX_REFLECTION_STATES]
    return sorted(_simples(q.node_count, tuple(zip(q.tails, q.heads)), d, budget))


def _simples(n: int, arrows, d, budget) -> list[tuple[int, ...]]:
    """The simples of perp(E_d) on nodes 0..n-1 with (tail, head) ``arrows``;
    ``budget`` holds the number of search states left."""
    parent = {(arrows, d): None}
    heap = [(sum(d), 0, arrows, d)]
    while heap:
        _, _, arr, v = heapq.heappop(heap)
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError(
                f"no (A) or (D) move within {MAX_REFLECTION_STATES} reflection "
                "states; the search ran out"
            )
        found = _direct_simples(n, arr, v, budget)
        if found is not None:
            break
        for x in range(n):
            if all(h != x for _, h in arr) or all(t != x for t, _ in arr):
                w = _reflect(x, arr, v)
                if w[x] < 0:
                    raise ValueError(
                        "a reflection leaves the positive roots; d is not a real "
                        "Schur root"
                    )
                state = (tuple((h, t) if x in (t, h) else (t, h) for t, h in arr), w)
                if state not in parent:
                    parent[state] = (arr, v, x)
                    heapq.heappush(heap, (sum(w), len(parent), *state))
    else:
        raise ValueError(
            "no (A) or (D) move in a finite reflection orbit; the search ran out"
        )
    while parent[arr, v] is not None:
        arr, v, x = parent[arr, v]
        found = [_reflect(x, arr, s) for s in found]
    return found


def _reflect(x: int, arrows, v) -> tuple[int, ...]:
    """The Cartan reflection s_x(v) = v - (Cv)_x e_x."""
    w = list(v)
    w[x] = sum(v[h] if t == x else v[t] for t, h in arrows if x in (t, h)) - v[x]
    return tuple(w)


def _direct_simples(n: int, arrows, d, budget):
    """The simples by move (A) or (D), or None when neither applies."""
    if sum(d) == 1:
        z = d.index(1)
        return [
            tuple(int(x == y) + (x == z) * arrows.count((y, z)) for x in range(n))
            for y in range(n)
            if y != z
        ]
    for z in range(n):
        if d[z] == sum(d[h] for t, h in arrows if t == z):
            keep = [x for x in range(n) if x != z]
            pos = {x: i for i, x in enumerate(keep)}
            sub = [(pos[t], pos[h]) for t, h in arrows if z not in (t, h)]
            sub += [(pos[t], pos[h]) for t, a in arrows if a == z for b, h in arrows if b == z]
            out = [tuple(int(x == z) for x in range(n))]
            for s in _simples(n - 1, tuple(sub), tuple(d[x] for x in keep), budget):
                e = [s[pos[x]] if x != z else 0 for x in range(n)]
                e[z] = min(
                    sum(e[h] for t, h in arrows if t == z),
                    sum(e[t] for t, h in arrows if h == z),
                )
                out.append(tuple(e))
            return out
    return None
