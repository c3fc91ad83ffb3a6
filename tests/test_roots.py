import numpy as np
import pytest

from qlfd.arith import DEFAULT_PRIME
from qlfd.fixtures import builtin
from qlfd.quiver import build_quiver, euler_form, tits_form
from qlfd.roots import (
    brick_probe,
    highest_root,
    is_imaginary_root,
    is_real_root,
    orthogonal_roots,
    positive_roots,
    semigroup_basis,
)

P = DEFAULT_PRIME


def box_scan_roots(q, box):
    """Independent oracle: every nonzero vector in the box with Tits form 1.

    For a Dynkin diagram these are exactly the positive roots; the box is the
    componentwise highest root plus one, so the scan also confirms no root
    escapes the expected bounds.
    """
    n = q.node_count
    axes = [np.arange(b + 2, dtype=np.int16) for b in box]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(np.int32)
    q_vals = (pts * pts).sum(axis=1)
    for t, h in zip(q.tails, q.heads):
        q_vals = q_vals - pts[:, t] * pts[:, h]
    mask = (q_vals == 1) & (pts.sum(axis=1) > 0)
    return {tuple(int(x) for x in row) for row in pts[mask]}


CLASSICAL_COUNTS = {
    "a2": 3,
    "a3": 6,
    "a6": 21,
    "d4-prop": 12,
    "d6-prop": 30,
    "d8-prop": 56,
    "e6-q1": 36,
    "e7-highroot": 63,
    "e8-central-sink": 120,
    "star2": 12,
}


def test_positive_root_counts_match_classical_formulas():
    for name, count in CLASSICAL_COUNTS.items():
        q, _ = builtin(name)
        assert len(positive_roots(q)) == count, name


def test_positive_roots_match_box_scan_oracle():
    for name in ["a3", "d5-prop", "e6-q2", "e7-highroot", "e8-central-sink"]:
        q, _ = builtin(name)
        roots = positive_roots(q)
        assert set(roots) == box_scan_roots(q, highest_root(q)), name


def test_positive_roots_require_dynkin():
    with pytest.raises(ValueError):
        positive_roots(builtin("tilde-d4-i")[0])


def test_positive_roots_a1():
    q = build_quiver(["1"], [])
    assert positive_roots(q) == [(1,)]


def test_highest_roots():
    assert highest_root(builtin("a5")[0]) == (1, 1, 1, 1, 1)
    assert highest_root(builtin("e7-highroot")[0]) == (1, 2, 3, 4, 3, 2, 2)
    assert highest_root(builtin("e8-central-sink")[0]) == (2, 4, 6, 5, 4, 3, 2, 3)
    # highest root of the fixtures equals the fixture dimension vector
    for name in ["e6-q1", "e7-highroot", "e8-central-sink", "d5-prop"]:
        q, d = builtin(name)
        assert highest_root(q) == d, name


def test_real_and_imaginary_root_tests():
    q, d = builtin("tilde-d4-i")
    real, applicable = is_real_root(q, d)
    assert real and applicable
    imag, applicable2 = is_imaginary_root(q, (1, 1, 1, 1, 2))
    assert imag and applicable2
    qa = builtin("a3")[0]
    assert is_real_root(qa, (1, 0, 0)) == (True, True)
    # the q2 support is minimally outside the criterion's hypothesis
    q2, d2 = builtin("q2")
    assert is_real_root(q2, d2) == (True, False)


def test_brick_probe_a3():
    q, _ = builtin("a3")
    cert = brick_probe(q, (1, 1, 1), P, seed=3)
    assert cert.endomorphism_dim == 1
    assert cert.ext_dim == 0
    assert cert.verdict == "brick"


def test_brick_probe_single_node():
    q = build_quiver(["1"], [])
    cert = brick_probe(q, (1,), P, seed=5)
    assert cert.endomorphism_dim == 1 and cert.ext_dim == 0


def test_brick_probe_non_schur_case():
    q, d = builtin("tilde-d4-iv")
    cert = brick_probe(q, d, P, seed=11)
    assert cert.endomorphism_dim >= 2
    assert cert.verdict == "not-brick"


def test_brick_probe_rank_nullity_invariant():
    # endo - ext = <d, d> at every sampled point
    for name, d in [("a3", (1, 1, 1)), ("tilde-d4-iv", None), ("e6-q1", None)]:
        q, dd = builtin(name)
        d = d or dd
        cert = brick_probe(q, d, P, seed=13)
        assert cert.endomorphism_dim - cert.ext_dim == tits_form(q, d)


def test_brick_probe_requires_large_prime():
    q, _ = builtin("a3")
    with pytest.raises(ValueError):
        brick_probe(q, (1, 1, 1), 101, seed=1)


def test_orthogonal_roots_a3():
    q, _ = builtin("a3")
    assert set(orthogonal_roots(q, (1, 1, 1))) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_orthogonal_roots_a2_highest():
    q, _ = builtin("a2")
    assert orthogonal_roots(q, (1, 1)) == [(1, 0)]


def test_orthogonal_roots_e7_contains_table_roots():
    q, d = builtin("e7-highroot")
    ortho = set(orthogonal_roots(q, d))
    assert (1, 1, 1, 1, 1, 0, 0) in ortho
    assert (1, 1, 2, 2, 1, 1, 1) in ortho
    for e in ortho:
        assert euler_form(q, e, d) == 0


def test_orthogonal_roots_non_dynkin_rejected():
    q, d = builtin("q2")
    with pytest.raises(ValueError):
        orthogonal_roots(q, d)


def test_semigroup_basis_a3():
    basis = semigroup_basis([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert basis == [(0, 1, 0), (1, 0, 0)]


def _is_combination(target, basis):
    # bounded-depth search: is target an N-combination of basis vectors?
    if not any(target):
        return True
    for b in basis:
        if all(x >= y for x, y in zip(target, b)):
            rest = tuple(x - y for x, y in zip(target, b))
            if _is_combination(rest, basis):
                return True
    return False


def test_semigroup_basis_spans_inputs_e7():
    q, d = builtin("e7-highroot")
    ortho = orthogonal_roots(q, d)
    basis = semigroup_basis(ortho)
    assert len(basis) == 6
    for r in basis:
        assert r in ortho
    for r in ortho:
        assert _is_combination(r, basis)


def test_semigroup_basis_e8_size():
    q, d = builtin("e8-central-sink")
    basis = semigroup_basis(orthogonal_roots(q, d))
    assert len(basis) == 7
