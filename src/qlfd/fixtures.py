"""Builtin quiver fixtures and the hard-coded block-matrix semi-invariants
attached to two of them.

Layout convention for all builtins: nodes are numbered left to right along
the long arm, branch node last; dimension vectors and table rows line up
with that order.
"""

from __future__ import annotations

from .quiver import Quiver, build_quiver
from .semiinv import BlockHandle, BlockRecipe, weight_of_schofield


def _chain(n: int):
    nodes = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return nodes, arrows


def _a_n(n: int):
    nodes, arrows = _chain(n)
    q = build_quiver(nodes, arrows, name=f"a{n}")
    return q, tuple([1] * n)


def _d_n_prop(n: int):
    """Two dimension-1 sources into a chain of dimension-2 nodes ending in a
    dimension-1 sink; the dimension vector is the highest root."""
    if n < 4:
        raise ValueError("d{n}-prop needs n >= 4")
    nodes = [str(i) for i in range(1, n + 1)]
    arrows = [("A", "1", "3"), ("B", "2", "3")]
    for i in range(3, n - 1):
        arrows.append((f"C{i - 2}", str(i), str(i + 1)))
    arrows.append(("D", str(n - 1), str(n)))
    dims = [1, 1] + [2] * (n - 3) + [1]
    return build_quiver(nodes, arrows, name=f"d{n}-prop"), tuple(dims)


def _e6_q1():
    nodes = ["1", "2", "3", "4", "5", "6"]
    arrows = [
        ("A", "1", "2"),
        ("B", "2", "3"),
        ("C", "4", "3"),
        ("D", "5", "4"),
        ("E", "3", "6"),
    ]
    return build_quiver(nodes, arrows, name="e6-q1"), (1, 2, 3, 2, 1, 2)


def _e6_q2():
    nodes = ["1", "2", "3", "4", "5", "6"]
    arrows = [
        ("A", "1", "2"),
        ("B", "2", "3"),
        ("C", "3", "4"),
        ("D", "4", "5"),
        ("E", "3", "6"),
    ]
    return build_quiver(nodes, arrows, name="e6-q2"), (1, 2, 3, 2, 1, 2)


def _e7_highroot():
    nodes = ["1", "2", "3", "4", "5", "6", "7"]
    arrows = [
        ("A", "1", "2"),
        ("B", "2", "3"),
        ("C", "3", "4"),
        ("D", "5", "4"),
        ("E", "6", "5"),
        ("F", "7", "4"),
    ]
    return build_quiver(nodes, arrows, name="e7-highroot"), (1, 2, 3, 4, 3, 2, 2)


def _e8_central_sink():
    nodes = ["1", "2", "3", "4", "5", "6", "7", "8"]
    arrows = [
        ("A", "1", "2"),
        ("B", "2", "3"),
        ("C", "8", "3"),
        ("D", "4", "3"),
        ("E", "5", "4"),
        ("F", "6", "5"),
        ("G", "7", "6"),
    ]
    return build_quiver(nodes, arrows, name="e8-central-sink"), (2, 4, 6, 5, 4, 3, 2, 3)


def _star(n: int):
    """n+1 dimension-1 sources into a sink of dimension n."""
    if n < 2:
        raise ValueError("star{n} needs n >= 2")
    sink = str(n + 2)
    nodes = [str(i) for i in range(1, n + 2)] + [sink]
    arrows = [(f"a{i}", str(i), sink) for i in range(1, n + 2)]
    dims = [1] * (n + 1) + [n]
    return build_quiver(nodes, arrows, name=f"star{n}"), tuple(dims)


def _tilde_d4(case: str):
    """Four outer dimension-1 nodes around a dimension-3 center; the four
    published orientation cases.  Node order: top, left, bottom, right,
    center."""
    nodes = ["1", "2", "3", "4", "5"]
    orientations = {
        "i": [("A", "1", "5"), ("B", "2", "5"), ("C", "3", "5"), ("D", "4", "5")],
        "ii": [("A", "5", "1"), ("B", "2", "5"), ("C", "3", "5"), ("D", "4", "5")],
        "iii": [("A", "1", "5"), ("B", "5", "2"), ("C", "5", "3"), ("D", "5", "4")],
        "iv": [("A", "1", "5"), ("B", "5", "2"), ("C", "3", "5"), ("D", "5", "4")],
    }
    arrows = orientations[case]
    return build_quiver(nodes, arrows, name=f"tilde-d4-{case}"), (1, 1, 1, 1, 3)


def _q1():
    nodes = ["1", "2", "3", "4", "5", "6"]
    arrows = [(ch, str(i + 1), "6") for i, ch in enumerate("ABCDE")]
    return build_quiver(nodes, arrows, name="q1"), (1, 1, 1, 1, 1, 4)


def _q2():
    """Split of the q1 sink: A, B, C feed the first copy, D, E the second,
    with the connecting arrow running first copy -> second copy."""
    nodes = ["1", "2", "3", "4", "5", "6", "7"]
    arrows = [
        ("A", "1", "6"),
        ("B", "2", "6"),
        ("C", "3", "6"),
        ("D", "4", "7"),
        ("E", "5", "7"),
        ("F", "6", "7"),
    ]
    return build_quiver(nodes, arrows, name="q2"), (1, 1, 1, 1, 1, 4, 4)


def _q3():
    """Same split with the connecting arrow reversed: A, B, C and F all feed
    node 6, while D, E feed node 7."""
    nodes = ["1", "2", "3", "4", "5", "6", "7"]
    arrows = [
        ("A", "1", "6"),
        ("B", "2", "6"),
        ("C", "3", "6"),
        ("D", "4", "7"),
        ("E", "5", "7"),
        ("F", "7", "6"),
    ]
    return build_quiver(nodes, arrows, name="q3"), (1, 1, 1, 1, 1, 4, 4)


_FIXED = {
    "e6-q1": _e6_q1,
    "e6-q2": _e6_q2,
    "e7-highroot": _e7_highroot,
    "e8-central-sink": _e8_central_sink,
    "q1": _q1,
    "q2": _q2,
    "q3": _q3,
    "tilde-d4-i": lambda: _tilde_d4("i"),
    "tilde-d4-ii": lambda: _tilde_d4("ii"),
    "tilde-d4-iii": lambda: _tilde_d4("iii"),
    "tilde-d4-iv": lambda: _tilde_d4("iv"),
}


def builtin_names() -> list[str]:
    names = sorted(_FIXED)
    names += [f"a{n}" for n in range(2, 9)]
    names += [f"d{n}-prop" for n in range(4, 9)]
    names += [f"star{n}" for n in range(2, 7)]
    return sorted(names)


def builtin(name: str) -> tuple[Quiver, tuple[int, ...]]:
    """Look up a builtin fixture by name; unknown names raise with a
    suggestion list."""
    key = name.strip().lower()
    if key in _FIXED:
        return _FIXED[key]()
    if key.startswith("a") and key[1:].isdigit():
        n = int(key[1:])
        if n >= 2:
            return _a_n(n)
    if key.startswith("d") and key.endswith("-prop") and key[1:-5].isdigit():
        return _d_n_prop(int(key[1:-5]))
    if key.startswith("star") and key[4:].isdigit():
        return _star(int(key[4:]))
    from difflib import get_close_matches  # only on this error path

    close = get_close_matches(key, builtin_names(), n=4, cutoff=0.4)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    raise KeyError(f"unknown builtin quiver {name!r}{hint}")


# ---------------------------------------------------------------------------
# Hard-coded block-matrix semi-invariants.  These serve as independent
# cross-checks of the automatically generated witness handles; the automatic
# path remains the source of truth for certification.


def _recipe(q, d, row_sizes, col_sizes, cells) -> BlockRecipe:
    parsed = []
    for row in cells:
        out = []
        for cell in row:
            if cell is None:
                out.append(None)
            else:
                sign, path = cell
                out.append((sign, tuple(path.split("."))))
        parsed.append(out)
    return BlockRecipe(q, d, row_sizes, col_sizes, parsed)


def block_handles(name: str) -> dict[tuple[int, ...], BlockHandle]:
    """Block-matrix handles for a builtin fixture, keyed by the orthogonal
    root each one realizes.  Available for e7-highroot and e8-central-sink."""
    q, d = builtin(name)
    out: dict[tuple[int, ...], BlockHandle] = {}

    def add(root, row_sizes, col_sizes, cells, label):
        recipe = _recipe(q, d, row_sizes, col_sizes, cells)
        handle = BlockHandle(recipe, weight_of_schofield(q, root), label=label)
        out[tuple(root)] = handle

    if name == "e7-highroot":
        add(
            (0, 0, 1, 1, 1, 0, 1),
            [4, 4],
            [3, 3, 2],
            [
                [(-1, "C"), (1, "D"), None],
                [(-1, "C"), None, (1, "F")],
            ],
            "det[-C D 0; -C 0 F]",
        )
        add(
            (1, 1, 2, 2, 1, 1, 1),
            [4, 4],
            [2, 3, 2, 1],
            [
                [(1, "F"), (1, "C"), None, (1, "C.B.A")],
                [None, (1, "C"), (-1, "D.E"), None],
            ],
            "det[F C 0 CBA; 0 C -DE 0]",
        )
        return out

    if name == "e8-central-sink":
        add(
            (1, 1, 1, 1, 1, 0, 0, 0),
            [6],
            [2, 4],
            [[(1, "B.A"), (1, "D.E")]],
            "det[BA | DE]",
        )
        add(
            (0, 0, 1, 1, 1, 1, 0, 1),
            [6],
            [3, 3],
            [[(1, "C"), (1, "D.E.F")]],
            "det[C | DEF]",
        )
        add(
            (0, 1, 1, 1, 1, 1, 1, 0),
            [6],
            [4, 2],
            [[(1, "B"), (1, "D.E.F.G")]],
            "det[B | DEFG]",
        )
        add(
            (0, 1, 1, 1, 0, 0, 0, 1),
            [6, 6],
            [4, 3, 5],
            [
                [(1, "B"), None, (1, "D")],
                [(1, "B"), (-1, "C"), None],
            ],
            "det[B 0 D; B -C 0]",
        )
        add(
            (1, 2, 2, 1, 1, 1, 0, 1),
            [6, 6],
            [2, 4, 3, 3],
            [
                [(1, "B.A"), (1, "B"), None, (1, "D.E.F")],
                [None, (1, "B"), (-1, "C"), None],
            ],
            "det[BA B 0 DEF; 0 B -C 0]",
        )
        add(
            (1, 1, 2, 2, 1, 1, 1, 1),
            [6, 6],
            [2, 3, 5, 2],
            [
                [(1, "B.A"), (1, "C"), None, (1, "D.E.F.G")],
                [None, (1, "C"), (-1, "D"), None],
            ],
            "det[BA C 0 DEFG; 0 C -D 0]",
        )
        add(
            (1, 2, 3, 2, 2, 1, 1, 2),
            [6, 6, 6],
            [2, 4, 3, 3, 4, 2],
            [
                [(1, "B.A"), (1, "B"), None, (1, "C"), None, (1, "D.E.F.G")],
                [None, (1, "B"), (-1, "C"), None, None, None],
                [None, None, None, (1, "C"), (-1, "D.E"), None],
            ],
            "det[BA B 0 C 0 DEFG; 0 B -C 0 0 0; 0 0 0 C -DE 0]",
        )
        return out

    raise KeyError(f"no block recipes for builtin {name!r}")
