"""Builtin quiver fixtures and the hard-coded block-matrix semi-invariants
attached to two of them.

Layout convention for all builtins: nodes are numbered left to right along
the long arm, branch node last; dimension vectors and table rows line up
with that order.
"""

from __future__ import annotations

from .arith import det, reduce
from .quiver import Quiver, build_quiver
from .repmatrix import Representation
from .semiinv import weight_of_schofield


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

# Each recipe is its label, keyed by the orthogonal root it realizes.  Inside
# det[...], ";" separates block rows and a space or "|" separates cells; a
# cell is 0 (a zero block) or an optional "-" and a path of one-letter arrow
# names, applied right to left.
_BLOCK_RECIPES = {
    "e7-highroot": {
        (0, 0, 1, 1, 1, 0, 1): "det[-C D 0; -C 0 F]",
        (1, 1, 2, 2, 1, 1, 1): "det[F C 0 CBA; 0 C -DE 0]",
    },
    "e8-central-sink": {
        (1, 1, 1, 1, 1, 0, 0, 0): "det[BA | DE]",
        (0, 0, 1, 1, 1, 1, 0, 1): "det[C | DEF]",
        (0, 1, 1, 1, 1, 1, 1, 0): "det[B | DEFG]",
        (0, 1, 1, 1, 0, 0, 0, 1): "det[B 0 D; B -C 0]",
        (1, 2, 2, 1, 1, 1, 0, 1): "det[BA B 0 DEF; 0 B -C 0]",
        (1, 1, 2, 2, 1, 1, 1, 1): "det[BA C 0 DEFG; 0 C -D 0]",
        (1, 2, 3, 2, 2, 1, 1, 2): "det[BA B 0 C 0 DEFG; 0 B -C 0 0 0; 0 0 0 C -DE 0]",
    },
}


class BlockHandle:
    """The semi-invariant V -> det of the block matrix its label describes.

    Block row i has d[head] rows for the head of the first arrow of its
    paths, and block column j has d[tail] columns for the tail of the last
    arrow of its paths; cells that disagree raise ValueError.
    """

    def __init__(self, q: Quiver, d, root, label: str):
        self.quiver, self.dims, self.label = q, tuple(d), label
        self.weight = weight_of_schofield(q, root)
        body = label.removeprefix("det[").removesuffix("]")
        self.tokens = [row.replace("|", " ").split() for row in body.split(";")]
        if len({len(row) for row in self.tokens}) != 1:
            raise ValueError("block rows have different numbers of cells")
        # (sign, path, shape) per cell, None for a zero block
        self.cells = [[self._cell(tok) for tok in row] for row in self.tokens]
        self.row_sizes = [self._size(row, 0, "row", i) for i, row in enumerate(self.cells)]
        self.col_sizes = [self._size(col, 1, "column", j) for j, col in enumerate(zip(*self.cells))]
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                want = (self.row_sizes[i], self.col_sizes[j])
                if cell is not None and cell[2] != want:
                    raise ValueError(f"cell ({i},{j}) has shape {cell[2]}, grid expects {want}")
        if sum(self.row_sizes) != sum(self.col_sizes):
            raise ValueError("block recipe is not square")
        self.degree_bound = sum(
            w * max((len(c[1]) for c in col if c is not None), default=0)
            for w, col in zip(self.col_sizes, zip(*self.cells))
        )

    def _cell(self, tok: str):
        if tok == "0":
            return None
        q = self.quiver
        sign, path = (-1, tok[1:]) if tok.startswith("-") else (1, tok)
        for name in path:
            if name not in q.arrow_index:
                raise ValueError(f"unknown arrow {name!r} in block recipe path")
        idx = [q.arrow_index[name] for name in path]
        if any(q.tails[a] != q.heads[b] for a, b in zip(idx, idx[1:])):
            raise ValueError(f"path {'.'.join(path)} is not composable")
        return sign, path, (self.dims[q.heads[idx[0]]], self.dims[q.tails[idx[-1]]])

    @staticmethod
    def _size(cells, axis: int, what: str, k: int) -> int:
        for cell in cells:
            if cell is not None:
                return cell[2][axis]
        raise ValueError(f"block {what} {k} has only zero cells")

    def evaluate(self, v: Representation):
        out = []
        for h, row in zip(self.row_sizes, self.cells):
            blocks = [[[0] * w] * h if cell is None else _path_matrix(v, cell[0], cell[1])
                      for w, cell in zip(self.col_sizes, row)]
            out += [sum((b[r] for b in blocks), []) for r in range(h)]
        return det(out, v.modulus)

    def to_dict(self):
        return {"row_sizes": self.row_sizes, "col_sizes": self.col_sizes, "cells": self.tokens}


def _path_matrix(v: Representation, sign: int, path: str):
    """sign times the product of the arrow matrices along path, the last
    arrow applied first."""
    p = v.modulus
    m = [[reduce(sign * x, p) for x in row] for row in v.mat(path[-1])]
    for name in reversed(path[:-1]):
        cols = list(zip(*m))
        m = [[reduce(sum(x * y for x, y in zip(row, col)), p) for col in cols] for row in v.mat(name)]
    return m


def block_handles(name: str) -> dict[tuple[int, ...], BlockHandle]:
    """Block-matrix handles for a builtin fixture, keyed by the orthogonal
    root each one realizes.  Available for e7-highroot and e8-central-sink."""
    q, d = builtin(name)
    key = name.strip().lower()  # the key ``builtin`` looks up
    if key not in _BLOCK_RECIPES:
        raise KeyError(f"no block recipes for builtin {name!r}")
    return {root: BlockHandle(q, d, root, label) for root, label in _BLOCK_RECIPES[key].items()}
