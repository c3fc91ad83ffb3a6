"""Quiver data model, integer bilinear forms, and underlying-graph
classification.

Node and arrow order is declaration order; every matrix and coordinate in
the package is indexed accordingly.  All values are immutable after
construction and every operation here is a pure function, so concurrent use
is safe.
"""

from __future__ import annotations

from collections import namedtuple

Arrow = namedtuple("Arrow", "name tail head")


class Quiver:
    """A finite directed multigraph with ordered nodes and arrows.

    Construct through :func:`build_quiver`, which validates identifiers and
    (by default) rejects oriented cycles.
    """

    def __init__(self, nodes, arrows, name: str = ""):
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.arrows: tuple[Arrow, ...] = tuple(arrows)
        self.name = name
        self.index = {x: i for i, x in enumerate(self.nodes)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        # tail/head node positions per arrow, in arrow order
        self.tails = tuple(self.index[a.tail] for a in self.arrows)
        self.heads = tuple(self.index[a.head] for a in self.arrows)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and self.nodes == other.nodes
            and self.arrows == other.arrows
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.arrows))

    def __repr__(self) -> str:
        label = self.name or f"{self.node_count} nodes"
        return f"Quiver({label}, {self.arrow_count} arrows)"


def build_quiver(nodes, arrows, allow_cycles: bool = False, name: str = "") -> Quiver:
    """Validate and build a quiver.

    ``arrows`` holds (name, tail, head) triples.  Raises ValueError on
    duplicate identifiers, dangling endpoints, or an oriented cycle when
    ``allow_cycles`` is false (a loop counts as a 1-cycle).
    """
    nodes = [str(x) for x in nodes]
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node identifier")
    declared = set(nodes)
    built = []
    seen = set()
    for name_, tail, head in arrows:
        name_, tail, head = str(name_), str(tail), str(head)
        if name_ in seen:
            raise ValueError(f"duplicate arrow identifier {name_!r}")
        seen.add(name_)
        if tail not in declared or head not in declared:
            raise ValueError(f"arrow {name_!r} has an undeclared endpoint")
        built.append(Arrow(name_, tail, head))
    q = Quiver(nodes, built, name=name)
    if not allow_cycles and not is_acyclic(q):
        raise ValueError("quiver contains an oriented cycle")
    return q


def _kahn(q: Quiver) -> list[int]:
    """Kahn's algorithm: the nodes in topological order, as far as it
    reaches; every node is listed exactly when q is acyclic."""
    indeg = [0] * q.node_count
    for h in q.heads:
        indeg[h] += 1
    order = [i for i, v in enumerate(indeg) if v == 0]
    pos = 0
    while pos < len(order):
        x = order[pos]
        pos += 1
        for a in range(q.arrow_count):
            if q.tails[a] == x:
                indeg[q.heads[a]] -= 1
                if indeg[q.heads[a]] == 0:
                    order.append(q.heads[a])
    return order


def is_acyclic(q: Quiver) -> bool:
    return len(_kahn(q)) == q.node_count


def topological_order(q: Quiver) -> list[int]:
    order = _kahn(q)
    if len(order) != q.node_count:
        raise ValueError("topological order needs an acyclic quiver")
    return order


def _check_vector(q: Quiver, v, nonneg: bool) -> tuple[int, ...]:
    v = tuple(int(x) for x in v)
    if len(v) != q.node_count:
        raise ValueError("vector length does not match node count")
    if nonneg and any(x < 0 for x in v):
        raise ValueError("dimension vector entries must be non-negative")
    return v


def adjacency_matrix(q: Quiver):
    """A[x][y] = number of arrows from x to y."""
    n = q.node_count
    a = [[0] * n for _ in range(n)]
    for t, h in zip(q.tails, q.heads):
        a[t][h] += 1
    return a


def euler_matrix(q: Quiver):
    """E = I - A, the matrix of the Euler form in node order."""
    e = adjacency_matrix(q)
    for i in range(q.node_count):
        for j in range(q.node_count):
            e[i][j] = (1 if i == j else 0) - e[i][j]
    return e


def euler_inverse(q: Quiver):
    """E^{-1} = I + A' with A'[x][y] = number of directed paths from x to y.

    Requires an acyclic quiver (the path count diverges otherwise).  The
    result is asserted against E by direct multiplication.
    """
    if not is_acyclic(q):
        raise ValueError("euler_inverse needs an acyclic quiver")
    n = q.node_count
    paths = [[0] * n for _ in range(n)]
    # process tails in reverse topological order so longer paths accumulate
    for x in reversed(topological_order(q)):
        for a in range(q.arrow_count):
            if q.tails[a] == x:
                h = q.heads[a]
                paths[x][h] += 1
                for y in range(n):
                    paths[x][y] += paths[h][y]
    inv = [[(1 if i == j else 0) + paths[i][j] for j in range(n)] for i in range(n)]
    e = euler_matrix(q)
    for i in range(n):
        for j in range(n):
            s = sum(e[i][k] * inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0), "path-count inverse failed"
    return inv


def level_function(q: Quiver) -> tuple[int, ...] | None:
    """A level l with l(head) = l(tail) + 1 on every arrow, 0 at the first
    node of each connected component; None when some cycle of the underlying
    graph has unequal numbers of arrows in each direction.

    Where it exists, V -> lam V is the action of lam**l(x) at every node x.
    """
    level: list[int | None] = [None] * q.node_count
    for root in range(q.node_count):
        if level[root] is not None:
            continue
        level[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for t, h in zip(q.tails, q.heads):
                if x not in (t, h):
                    continue
                y, ly = (h, level[x] + 1) if t == x else (t, level[x] - 1)
                if level[y] is None:
                    level[y] = ly
                    stack.append(y)
                elif level[y] != ly:
                    return None
    return tuple(level)


def euler_form(q: Quiver, e, d) -> int:
    """<e, d> = sum_x e_x d_x - sum_arrows e_tail d_head."""
    e = _check_vector(q, e, nonneg=False)
    d = _check_vector(q, d, nonneg=False)
    total = sum(a * b for a, b in zip(e, d))
    for t, h in zip(q.tails, q.heads):
        total -= e[t] * d[h]
    return total


def tits_form(q: Quiver, d) -> int:
    return euler_form(q, d, d)


def cartan_matrix(q: Quiver):
    """C = E + E^T; symmetric, diagonal 2 for loop-free quivers."""
    e = euler_matrix(q)
    n = q.node_count
    return [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]


def in_out_degree(q: Quiver, d):
    """(indeg_d, outdeg_d): at x, the sums of d over arrow tails into x and
    over arrow heads out of x.  Alternate forms: d - d E and d - d E^T."""
    d = _check_vector(q, d, nonneg=False)
    indeg = [0] * q.node_count
    outdeg = [0] * q.node_count
    for t, h in zip(q.tails, q.heads):
        indeg[h] += d[t]
        outdeg[t] += d[h]
    return tuple(indeg), tuple(outdeg)


def support(d) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(d) if x != 0)


def support_subquiver(q: Quiver, d) -> tuple[Quiver, tuple[int, ...]]:
    """Full subquiver on the nodes where d is nonzero, with d restricted."""
    d = _check_vector(q, d, nonneg=True)
    keep = support(d)
    if not keep:
        raise ValueError("empty support")
    keep_set = set(keep)
    nodes = [q.nodes[i] for i in keep]
    arrows = [
        (a.name, a.tail, a.head)
        for a in q.arrows
        if q.index[a.tail] in keep_set and q.index[a.head] in keep_set
    ]
    sub = build_quiver(nodes, arrows, allow_cycles=True, name=q.name)
    return sub, tuple(d[i] for i in keep)


def embed_vector(q: Quiver, sub: Quiver, vec) -> tuple[int, ...]:
    """A vector on the subquiver ``sub`` as a full-length vector on q, zero
    off the nodes of ``sub``."""
    out = [0] * q.node_count
    for node, v in zip(sub.nodes, vec):
        out[q.index[node]] = v
    return tuple(out)


def opposite_quiver(q: Quiver) -> Quiver:
    arrows = [(a.name, a.head, a.tail) for a in q.arrows]
    return build_quiver(q.nodes, arrows, allow_cycles=True, name=q.name + "-opp")


# ---------------------------------------------------------------------------
# Underlying-graph classification


# kind: "dynkin" | "extended" | "other"
class Classification(namedtuple("Classification", "kind letter rank", defaults=(None, None))):
    __slots__ = ()

    @property
    def label(self) -> str:
        if self.kind == "dynkin":
            return f"{self.letter}{self.rank}"
        if self.kind == "extended":
            return f"{self.letter}~{self.rank}"
        return "Other"

    def __str__(self) -> str:
        return self.label


OTHER = Classification("other")


def connected_components(q: Quiver) -> list[list[int]]:
    n = q.node_count
    adj = [set() for _ in range(n)]
    for t, h in zip(q.tails, q.heads):
        adj[t].add(h)
        adj[h].add(t)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _classify_component(node_ids, edges) -> Classification:
    """Classify one connected undirected multigraph given by node ids and
    (u, v) edge pairs (loops as (u, u))."""
    n = len(node_ids)
    if any(u == v for u, v in edges):
        return OTHER
    m = len(edges)
    if n == 1:
        return Classification("dynkin", "A", 1)
    pair_counts = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        pair_counts[key] = pair_counts.get(key, 0) + 1
    if any(c > 1 for c in pair_counts.values()):
        # the double edge on two nodes is the smallest extended A diagram
        if n == 2 and m == 2:
            return Classification("extended", "A", 1)
        return OTHER
    deg = {x: 0 for x in node_ids}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if m == n and all(d == 2 for d in deg.values()):
        return Classification("extended", "A", n - 1)
    if m != n - 1:
        return OTHER
    # tree; classify by branch structure
    maxdeg = max(deg.values())
    branch3 = [x for x in node_ids if deg[x] == 3]
    branch4p = [x for x in node_ids if deg[x] >= 4]
    if maxdeg <= 2:
        return Classification("dynkin", "A", n)
    if branch4p:
        if len(branch4p) == 1 and deg[branch4p[0]] == 4 and n == 5 and len(branch3) == 0:
            return Classification("extended", "D", 4)
        return OTHER
    adj = {x: [] for x in node_ids}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if len(branch3) == 1:
        b = branch3[0]
        arms = sorted(_arm_length(adj, b, nb) for nb in adj[b])
        if arms[0] == 1 and arms[1] == 1:
            return Classification("dynkin", "D", n)
        table = {
            (1, 2, 2): ("dynkin", "E", 6),
            (1, 2, 3): ("dynkin", "E", 7),
            (1, 2, 4): ("dynkin", "E", 8),
            (2, 2, 2): ("extended", "E", 6),
            (1, 3, 3): ("extended", "E", 7),
            (1, 2, 5): ("extended", "E", 8),
        }
        hit = table.get(tuple(arms))
        return Classification(*hit) if hit else OTHER
    if len(branch3) == 2:
        ok = all(
            sorted(_arm_length(adj, b, nb) for nb in adj[b] if nb not in branch3)[:2]
            == [1, 1]
            and sum(1 for nb in adj[b] if deg[nb] == 1) == 2
            for b in branch3
        )
        return Classification("extended", "D", n - 1) if ok else OTHER
    return OTHER


def _arm_length(adj, branch, first) -> int:
    """Edge count from a branch node to the leaf along a degree-<=2 arm;
    large sentinel if the walk meets another branch node."""
    length = 1
    prev, cur = branch, first
    while True:
        nxt = [y for y in adj[cur] if y != prev]
        if len(nxt) == 0:
            return length
        if len(nxt) > 1:
            return 10**6
        prev, cur = cur, nxt[0]
        length += 1


def classify_underlying_graph(q: Quiver):
    """ADE / extended-ADE recognition of the underlying undirected multigraph.

    Returns a single Classification for a connected quiver; for a
    disconnected one, a list with one Classification per component (in node
    order).
    """
    comps = connected_components(q)
    edges = [(t, h) for t, h in zip(q.tails, q.heads)]
    results = []
    for comp in comps:
        comp_set = set(comp)
        comp_edges = [e for e in edges if e[0] in comp_set]
        results.append(_classify_component(comp, comp_edges))
    if len(results) == 1:
        return results[0]
    return results
