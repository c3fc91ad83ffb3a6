import importlib
import json
import math
import sys
import time
from unittest.mock import ANY

import pytest

from qlfd import arith
from qlfd.arith import (
    DEFAULT_PRIME,
    Rng,
    _crt_prime,
    det,
    det_pencil_poly,
    poly_degree,
    poly_mul,
    reduce,
)
from qlfd.certify import (
    CertifyError,
    CertifyOptions,
    certify,
    discriminant_degree,
    line_certificate,
    multiplicity_vector,
    verify_factorization,
)
from qlfd.fixtures import builtin
from qlfd.quiver import build_quiver, opposite_quiver
from qlfd.repmatrix import LinearFormMatrix, RepCoordinates, action_matrix, tree_representation
from qlfd.semiinv import (
    DegenerateWitnessError,
    SchofieldHandle,
    sample_generic_witness,
    weight_of_schofield,
)

from mpoly import degree_of, det_exact, interpolate, rank_exact

P = DEFAULT_PRIME


def test_discriminant_degree_fixtures(report_for):
    q6, d6 = builtin("e6-q1")
    assert discriminant_degree(q6, d6) == 22
    q7, d7 = builtin("e7-highroot")
    assert discriminant_degree(q7, d7) == 46


def test_discriminant_degree_detects_non_schur():
    q, d = builtin("tilde-d4-iv")
    with pytest.raises(CertifyError):
        discriminant_degree(q, d)


def test_discriminant_degree_exact_mode_agrees():
    q, d = builtin("d7-prop")
    assert discriminant_degree(q, d, None) == discriminant_degree(q, d) == 18


@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 7])
def test_certify_options_reject_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        CertifyOptions(seed=seed)


def test_certify_options_accept_seed_range_ends():
    assert CertifyOptions(seed=0).seed == 0
    assert CertifyOptions(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("modulus", [8, 1, 2**89 - 1])
def test_certify_options_reject_bad_prime(modulus):
    # rejected when the options are built, before any stage runs
    with pytest.raises(ValueError, match="modulus"):
        CertifyOptions(prime=modulus)


def test_multiplicity_vector_tilde_d4_ii():
    q, d = builtin("tilde-d4-ii")
    # components: the three degree-2 compositions and the degree-3 minor
    roots = [(0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1), (2, 1, 1, 1, 2)]
    weights = [weight_of_schofield(q, e) for e in roots]
    assert multiplicity_vector(q, d, weights) == [1, 1, 1, 2]
    # order independence
    perm = [weights[3], weights[0], weights[2], weights[1]]
    assert multiplicity_vector(q, d, perm) == [2, 1, 1, 1]


def test_multiplicity_vector_error_cases():
    q, d = builtin("a3")
    w1 = weight_of_schofield(q, (1, 0, 0))
    with pytest.raises(ValueError):
        multiplicity_vector(q, d, [w1, w1])  # dependent
    with pytest.raises(ValueError):
        # wrong single weight cannot reach the discriminant weight positively
        multiplicity_vector(q, d, [w1])


def test_multiplicity_vector_messages_in_order():
    # a3 has discriminant weight (-1, 0, 1)
    q, d = builtin("a3")
    cases = [
        # dependent weights, whose equation has no solution either
        ([(1, 0, 0), (2, 0, 0)], "weights are linearly dependent"),
        ([(1, 0, 0)], "weight equation has no rational solution"),
        ([(-2, 0, 2)], "non-integral multiplicity 1/2"),
        ([(1, 0, -1)], "non-positive multiplicity -1"),
        # -1 * (1, 0, 0) + 1/2 * (0, 0, 2): the first component is checked first
        ([(1, 0, 0), (0, 0, 2)], "non-positive multiplicity -1"),
        ([(0, 0, 2), (1, 0, 0)], "non-integral multiplicity 1/2"),
    ]
    for weights, message in cases:
        with pytest.raises(ValueError) as err:
            multiplicity_vector(q, d, weights)
        assert str(err.value) == message
    assert multiplicity_vector(q, d, [(-1, 1, 0), (0, -1, 1)]) == [1, 1]
    # node rows that repeat another, or are zero, take no pivot
    assert multiplicity_vector(q, d, [(-1, 0, 1)]) == [1]


def _multiplicities_by_cramer(weights, target):
    """The weight equation solved by rank tests and Cramer's rule over Q
    (Bareiss determinants), as an oracle: the solution, or the message."""
    s = len(weights)
    rows = [[w[x] for w in weights] for x in range(len(target))]
    if rank_exact(rows) < s:
        return "weights are linearly dependent"
    if rank_exact([row + [t] for row, t in zip(rows, target)]) > s:
        return "weight equation has no rational solution"
    square, rhs = [], []
    for row, t in zip(rows, target):
        if len(square) < s and rank_exact(square + [row]) > len(square):
            square.append(row)
            rhs.append(t)
    den = det_exact(square)
    out = []
    for i in range(s):
        v = det_exact([row[:i] + [t] + row[i + 1:] for row, t in zip(square, rhs)]) / den
        if v.denominator != 1:
            return f"non-integral multiplicity {v}"
        if v < 1:
            return f"non-positive multiplicity {int(v)}"
        out.append(int(v))
    return out


def test_multiplicity_vector_matches_cramer(monkeypatch):
    # random weight systems on up to 7 nodes, with a target that is a random
    # combination of them (integral, fractional, non-positive), or not one
    certify_module = importlib.import_module("qlfd.certify")
    rng = Rng(3131)
    seen = set()
    for trial in range(600):
        n, s = rng.randint(1, 7), rng.randint(1, 4)
        weights = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(s)]
        if trial % 5 == 0 and s > 1:
            weights[-1] = tuple(2 * x - y for x, y in zip(weights[0], weights[1 % (s - 1)]))
        a = [rng.randint(-1, 3) for _ in range(s)]
        k = rng.randint(1, 2)
        target = [sum(ai * w[x] for ai, w in zip(a, weights)) for x in range(n)]
        if trial % 7 == 0:
            target[rng.below(n)] += 1
        if k == 2 and any(x % 2 for x in target):
            weights = [tuple(2 * x for x in w) for w in weights]
        monkeypatch.setattr(certify_module, "discriminant_weight", lambda *_: target)
        expected = _multiplicities_by_cramer(weights, target)
        try:
            got = multiplicity_vector(build_quiver(list("abcdefg"[:n]), []), (1,) * n, weights)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (weights, target)
        seen.add(expected.split(" multiplicity")[0] if isinstance(expected, str) else "solved")
    assert len(seen) == 5  # each of the four messages, and solutions


def _refuse_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stage sampled before the primes were checked")

    certify_module = importlib.import_module("qlfd.certify")
    monkeypatch.setattr(certify_module, "sample_generic_witness", refuse)
    monkeypatch.setattr(certify_module, "perpendicular_simples", refuse)
    monkeypatch.setattr(certify_module, "_probe_line", refuse)


def test_certify_checks_the_prime_before_any_stage(monkeypatch):
    _refuse_sampling(monkeypatch)
    q, d = builtin("e8-central-sink")
    with pytest.raises(ValueError) as err:
        certify(q, d, CertifyOptions(prime=233))
    assert str(err.value) == (
        "option prime needs a prime above twice the degree: 233 <= 2 * 118"
    )


@pytest.mark.parametrize("name,prime", [("q3", 101), ("star3", 1000003)])
def test_certify_gates_a_mid_size_prime_on_a_non_dynkin_support_by_its_bound(
    report_for, capsys, name, prime
):
    # a prime above 2 * dim Rep runs every stage on any support; the line
    # proves d a Schur root at any such prime, and the 2^-40 gate alone
    # keeps the verdict from being definitive: exit 2, not an error
    from qlfd.cli import main

    rep = certify(*builtin(name), CertifyOptions(prime=prime))
    assert rep.stats.mode == "advisory" and rep.verdict == "inconclusive"
    assert rep.reason == (
        f"false-accept bound 2^{rep.stats.ratio_point_bound_log2:.1f} is not below "
        "2^-40; use a larger prime"
    )
    assert (rep.stats.brick_endomorphism_dim, rep.stats.brick_ext_dim) == (1, 0)
    tables = [[c.to_dict() for c in r.components] for r in (rep, report_for(name))]
    assert tables[0] == tables[1] and tables[0]
    assert main(["certify", "--builtin", name, "--prime", str(prime), "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.err == "" and json.loads(out.out)["reason"] == rep.reason


@pytest.mark.parametrize("command", ["certify", "semiinv"])
def test_cli_refuses_a_small_prime_on_a_non_dynkin_support(monkeypatch, capsys, command):
    # at or below 2 * dim Rep (2 * 36 on q3), before any stage samples
    from qlfd.cli import main

    _refuse_sampling(monkeypatch)
    assert main([command, "--builtin", "q3", "--prime", "71"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: option prime needs a prime above twice the degree: 71 <= 2 * 36\n"
    )


def test_exact_certify_does_not_use_the_prime():
    # the prime is not used over Q, so it is not checked against dim Rep
    q, d = builtin("a5")
    rep = certify(q, d, CertifyOptions(prime=5, exact=True))
    assert rep.verdict == "linear-free-divisor"


def _probe_line(q, d, p, seed):
    """The first line ``certify`` draws at ``seed``, with Delta at its two
    ends: (vec0, vec1, Delta(vec0), Delta(vec1))."""
    certify_module = importlib.import_module("qlfd.certify")
    lfm = action_matrix(q, d)
    vec0, vec1, delta1 = certify_module._probe_line(lfm, p, seed)[0]
    return vec0, vec1, det(lfm.evaluate(vec0, p), p), delta1


def _line_certificate(q, d, roots, degrees, mults, p, seed):
    """``line_certificate`` on the first line ``certify`` draws at ``seed``."""
    certify_module = importlib.import_module("qlfd.certify")
    lfm = action_matrix(q, d)
    line = certify_module._probe_line(lfm, p, seed)[0]
    return line_certificate(lfm, line, roots, degrees, mults, p, seed)


def _points(q, d, line, p):
    """The ends V0, V1 of a line as representations."""
    coords = RepCoordinates(q, d)
    return coords.unflatten(line[0], p), coords.unflatten(line[1], p)


def _restrictions(q, d, handles, line, p):
    """Each handle restricted to the line by its pencil."""
    v0, v1 = _points(q, d, line, p)
    return [h.restrict(h.pencil(v0, v1)) for h in handles]


def test_verify_factorization_a3():
    q, d = builtin("a3")
    line = _probe_line(q, d, P, seed=4)
    v0, v1 = _points(q, d, line, P)
    restrictions = []
    for e in [(1, 0, 0), (0, 1, 0)]:
        h, f = sample_generic_witness(e, v0, v1, seed=3, degree=1)
        restrictions.append(h.restrict(f))
    ok, unit, prod = verify_factorization(restrictions, [1, 1], line, P)
    assert ok
    assert unit in (1, P - 1)
    assert poly_degree(prod) == 2


def _identity_inputs(report_for, name, p):
    """Handles over the component roots of a builtin's report, drawn on the
    certificate's first line as the certificate draws them, their
    multiplicities, and that line, over F_p or Q."""
    q, d = builtin(name)
    rep = report_for(name)
    line = _probe_line(q, d, p, seed=5)
    v0, v1 = _points(q, d, line, p)
    handles = [
        sample_generic_witness(c.root, v0, v1, seed=3, degree=c.degree)[0]
        for c in rep.components
    ]
    return q, d, handles, [c.multiplicity for c in rep.components], line


@pytest.mark.parametrize(
    "name, p",
    [("tilde-d4-ii", P), ("q3", P), ("e6-q1", None), ("d7-prop", None)],
)
def test_verify_factorization_holds_on_the_probe_line(report_for, name, p):
    q, d, handles, mults, line = _identity_inputs(report_for, name, p)
    ok, unit, prod = verify_factorization(_restrictions(q, d, handles, line, p), mults, line, p)
    assert ok and unit not in (None, 0)
    # the identity holds on the whole line, not only at its ends: c * P|_L is
    # the restriction of Delta, computed here by the dim Rep pencil
    vec0, vec1, delta0, delta1 = line
    lfm = action_matrix(q, d)
    assert [reduce(unit * x, p) for x in prod] == det_pencil_poly(
        lfm.evaluate(vec0, p), lfm.evaluate(vec1, p), p
    )
    assert (reduce(unit * prod[0], p), reduce(unit * prod[-1], p)) == (delta0, delta1)
    # tilde-d4-ii and q3 each have a component of multiplicity 2
    assert (max(mults) == 2) == (p is not None)


def test_verify_factorization_rejects_a_wrong_factorization(report_for):
    q, d, handles, mults, line = _identity_inputs(report_for, "e7-highroot", P)
    lines = _restrictions(q, d, handles, line, P)
    assert verify_factorization(lines, mults, line, P)[0]
    raised = [mults[0] + 1] + mults[1:]
    assert verify_factorization(lines, raised, line, P) == (False, None, None)
    assert not verify_factorization(lines[1:], mults[1:], line, P)[0]
    # components are ordered by degree: the first two both have degree 6, so
    # the swapped product still has full degree and only its values differ
    assert handles[0].degree == handles[1].degree
    swapped = [lines[1]] + lines[1:]
    assert not verify_factorization(swapped, mults, line, P)[0]


def _handle_values_on_line(q, d, h, line, p):
    """h restricted to the line by interpolation from deg h + 1 values."""
    vec0, vec1, _, _ = line
    coords = RepCoordinates(q, d)
    points = [
        (t, h.evaluate(coords.unflatten([reduce(a + t * b, p) for a, b in zip(vec0, vec1)], p)))
        for t in range(h.degree + 1)
    ]
    return interpolate(points, p)


@pytest.mark.parametrize("name, exact, size", [
    ("star7", False, 7), ("e8-central-sink", False, 82), ("e6-q1", True, 22)])
def test_the_delta_pair_runs_without_the_peeled_columns_over_f_p(monkeypatch, name, exact, size):
    # over F_p, Delta(vec1) and Delta(vec0) are two determinants of M(V, V)
    # less its peeled columns and its dropped one, and a certify on a Schur
    # root evaluates no full action matrix; over Q both are of the full A(V)
    repmatrix = importlib.import_module("qlfd.repmatrix")
    sizes, evaluated = [], []
    real, evaluate = repmatrix.det, LinearFormMatrix.evaluate
    monkeypatch.setattr(repmatrix, "det", lambda m, p: sizes.append(len(m)) or real(m, p))
    monkeypatch.setattr(LinearFormMatrix, "evaluate",
                        lambda lfm, vec, p: evaluated.append(p) or evaluate(lfm, vec, p))
    rep = certify(*builtin(name), CertifyOptions(exact=exact))
    assert rep.verdict == "linear-free-divisor" and rep.stats.lines_used == 1
    assert sizes == [size, size]
    assert evaluated == ([None, None] if exact else [])


@pytest.mark.parametrize("name, p", [("e7-highroot", P), ("q3", P), ("e6-q1", None)])
def test_verify_factorization_restricts_each_handle_by_one_pencil(
    report_for, monkeypatch, name, p
):
    q, d, handles, mults, line = _identity_inputs(report_for, name, p)
    expected = [_handle_values_on_line(q, d, h, line, p) for h in handles]
    semiinv = importlib.import_module("qlfd.semiinv")
    pencils = []
    real_pencil = semiinv.det_pencil_poly
    monkeypatch.setattr(
        semiinv, "det_pencil_poly", lambda m0, m1, f: pencils.append(len(m0)) or real_pencil(m0, m1, f)
    )

    def refuse(*_):
        raise AssertionError("handle evaluated on the identity line")

    monkeypatch.setattr(SchofieldHandle, "evaluate", refuse)
    lines = _restrictions(q, d, handles, line, p)
    ok, unit, _ = verify_factorization(lines, mults, line, p)
    assert ok and unit not in (None, 0)
    # each pencil runs without the peeled columns of its defect matrices
    assert pencils == [h.degree_bound - h.sinks.zeros for h in handles]
    assert lines == expected
    assert all(poly_degree(hl) == h.degree for hl, h in zip(lines, handles))
    # q3 raises a handle's line to the power 2
    assert (max(mults) == 2) == (name == "q3")


def test_star7_handle_pencils_have_as_many_live_columns_as_the_degree(
    report_for, monkeypatch
):
    # M(0, V0) is nonzero only in the columns of tail nodes: on star7 each
    # handle pencil is 49 x 49, and its Hessenberg pass runs on the 7 x 7
    # pencil left without the sink columns, deg h = 7
    q, d, handles, mults, line = _identity_inputs(report_for, "star7", P)
    sizes = []
    real = arith._charpoly_op
    monkeypatch.setattr(arith, "_charpoly_op", lambda apply, n, f: sizes.append(n) or real(apply, n, f))
    assert verify_factorization(_restrictions(q, d, handles, line, P), mults, line, P)[0]
    assert {h.degree_bound for h in handles} == {49}
    assert sizes == [h.degree for h in handles] == [7] * 8


@pytest.mark.parametrize("shift", [-1, 1])
def test_verify_factorization_rejects_a_wrong_declared_degree(report_for, shift):
    q, d, handles, mults, line = _identity_inputs(report_for, "e7-highroot", P)
    true_degree = handles[0].degree
    handles[0].degree = true_degree + shift
    lines = _restrictions(q, d, handles, line, P)
    # too low, the pencil has a nonzero coefficient below t^(n-k); too
    # high, the restriction gains a factor t and P|_L the wrong degree
    assert (lines[0] is None) == (shift < 0)
    assert verify_factorization(lines, mults, line, P) == (False, None, None)


def test_verify_factorization_rejects_a_handle_vanishing_at_vec1(report_for):
    # h is homogeneous of positive degree, so it vanishes at vec1 = 0; a
    # vec1 that is zero on one arm of e6-q1 kills only some handles
    q, d, handles, mults, line = _identity_inputs(report_for, "e6-q1", P)
    vec0, vec1, *deltas = line
    zero = (vec0, [0] * len(vec1), *deltas)
    assert _restrictions(q, d, handles, zero, P) == [None] * len(handles)
    assert verify_factorization([None] * len(handles), mults, zero, P) == (False, None, None)
    cut = RepCoordinates(q, d).offsets[1]
    arm = (vec0, [0] * cut + vec1[cut:], *deltas)
    v0, v1 = _points(q, d, arm, P)
    vanishing = [h for h in handles if h.pencil(v0, v1) is None]
    assert vanishing and all(h.evaluate(v1) == 0 for h in vanishing)
    assert verify_factorization(_restrictions(q, d, handles, arm, P), mults, arm, P) == (
        False, None, None
    )


def test_verify_factorization_refuses_unpaired_handles_and_multiplicities(
    report_for, monkeypatch
):
    # a plain zip would drop the unpaired tail; the mismatch raises before
    # any product is formed, even where a restriction is missing
    q, d, handles, mults, line = _identity_inputs(report_for, "e7-highroot", P)
    lines = _restrictions(q, d, handles, line, P)

    def refuse(*_):
        raise AssertionError("product formed before the pairing was checked")

    monkeypatch.setattr(importlib.import_module("qlfd.certify"), "poly_mul", refuse)
    with pytest.raises(ValueError):
        verify_factorization(lines, mults[:-1], line, P)
    with pytest.raises(ValueError):
        verify_factorization([None] + lines[1:-1], mults, line, P)


def _certificate_inputs(report_for, name):
    """(Q, d), the component roots, their degrees and their multiplicities
    of a builtin."""
    rep = report_for(name)
    return (*builtin(name), *(
        [getattr(c, key) for c in rep.components] for key in ("root", "degree", "multiplicity")
    ))


def test_squarefree_probe_fixtures(report_for):
    # the squarefree probe of line_certificate: P|_L is squarefree on the
    # first line exactly when every multiplicity is 1, over F_p and over Q
    for name, p, reduced in [
        ("a3", P, True),
        ("tilde-d4-ii", P, False),
        ("e6-q1", P, True),
        ("tilde-d4-ii", None, False),
        ("d7-prop", None, True),
    ]:
        q, d, roots, degrees, mults = _certificate_inputs(report_for, name)
        cert = _line_certificate(q, d, roots, degrees, mults, p, seed=6)
        assert cert[:4] == (True, reduced, cert.unit, 1), (name, p)
        assert cert.unit not in (None, 0)
        assert [h.root for h in cert.handles] == roots


def test_squarefree_probe_one_squarefree_vote_proves_reduced(report_for, monkeypatch):
    # every a_i = 1: a P|_L that is not squarefree may come from an unlucky
    # line, so another line is drawn, and the first squarefree one is a proof
    q, d, roots, degrees, mults = _certificate_inputs(report_for, "e6-q1")
    certify_module = importlib.import_module("qlfd.certify")
    real_line = certify_module._probe_line
    trials, votes = [], iter([False, True])
    monkeypatch.setattr(certify_module, "_squarefree", lambda f, p: next(votes))
    monkeypatch.setattr(
        certify_module,
        "_probe_line",
        lambda lfm, p, seed, trial=0: trials.append(trial) or real_line(lfm, p, seed, trial),
    )
    cert = _line_certificate(q, d, roots, degrees, mults, P, seed=5)
    assert cert[:4] == (True, True, cert.unit, 2) and trials == [0, 1]
    # the reported ratio is the first line's
    first = _probe_line(q, d, P, seed=5)
    lines = _restrictions(q, d, cert.handles, first, P)
    assert cert.unit == verify_factorization(lines, mults, first, P)[1]


def test_three_lines_without_a_squarefree_product_are_inconclusive(monkeypatch):
    certify_module = importlib.import_module("qlfd.certify")
    monkeypatch.setattr(certify_module, "_squarefree", lambda f, p: False)
    rep = certify(*builtin("e6-q1"))
    assert rep.verdict == "inconclusive" and rep.stats.lines_used == 3
    assert rep.reason == (
        "reducedness signals disagree: multiplicities all 1 = True, "
        "P|_L squarefree on 3 line(s) = False"
    )
    assert len(rep.components) == 5  # the table is still reported


def test_a_redrawn_line_needs_the_first_line_ratio(report_for, monkeypatch):
    # Delta = c * P holds with one c: a second line whose ends agree with
    # another c fails the identity
    q, d, roots, degrees, mults = _certificate_inputs(report_for, "e6-q1")
    certify_module = importlib.import_module("qlfd.certify")
    ratios = iter([5, 6])
    monkeypatch.setattr(certify_module, "_ends_agree", lambda *_: (True, next(ratios)))
    monkeypatch.setattr(certify_module, "_squarefree", lambda f, p: False)
    assert _line_certificate(q, d, roots, degrees, mults, P, seed=5)[:4] == (False, False, 5, 2)


def test_squarefree_probe_not_reduced_needs_one_line(report_for):
    # a handle whose square divides P makes P|_L not squarefree on every
    # line, so one line settles not-reduced
    for name in ("tilde-d4-ii", "q3"):
        q, d, roots, degrees, mults = _certificate_inputs(report_for, name)
        assert max(mults) == 2
        assert _line_certificate(q, d, roots, degrees, mults, P, seed=5)[1:4] == (False, ANY, 1)
        rep = report_for(name)
        assert rep.verdict == "not-reduced" and rep.stats.lines_used == 1


def test_a_wrong_multiplicity_fails_the_endpoint_identity(report_for):
    # past the degree check, which a raised multiplicity already fails, the
    # ends of the line alone reject the raised product
    q, d, handles, mults, line = _identity_inputs(report_for, "e7-highroot", P)
    certify_module = importlib.import_module("qlfd.certify")
    lines = _restrictions(q, d, handles, line, P)
    ok, unit, prod = verify_factorization(lines, mults, line, P)
    assert ok
    _, _, delta0, delta1 = line
    assert certify_module._ends_agree(delta0, delta1, prod, P) == (True, unit)
    raised = poly_mul(prod, lines[0], P)
    assert not certify_module._ends_agree(delta0, delta1, raised, P)[0]


def _counting_pencils(monkeypatch):
    """Sizes of the outermost ``det_pencil_poly`` calls, wherever a qlfd
    module calls it from."""
    sizes, depth = [], [0]
    real = arith.det_pencil_poly

    def counting(m0, m1, p):
        if not depth[0]:
            sizes.append(len(m0))
        depth[0] += 1
        try:
            return real(m0, m1, p)
        finally:
            depth[0] -= 1

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qlfd" and getattr(module, "det_pencil_poly", None) is real:
            monkeypatch.setattr(module, "det_pencil_poly", counting)
    return sizes


@pytest.mark.parametrize(
    "name, exact",
    [("e8-central-sink", False), ("star7", False), ("q3", False), ("e6-q1", True)],
)
def test_no_pencil_of_size_dim_rep_runs(monkeypatch, name, exact):
    sizes = _counting_pencils(monkeypatch)
    rep = certify(*builtin(name), CertifyOptions(exact=exact))
    assert rep.definitive
    assert sizes and rep.dim_rep not in sizes
    # one pencil per handle per line used
    assert len(sizes) == len(rep.components) * rep.stats.lines_used


def test_exact_squarefree_test_reduces_modulo_a_prime_first(monkeypatch):
    certify_module = importlib.import_module("qlfd.certify")
    fields = []
    real = certify_module.poly_gcd
    monkeypatch.setattr(
        certify_module, "poly_gcd", lambda f, g, p: fields.append(p) or real(f, g, p)
    )
    q0 = _crt_prime(0)
    # squarefree: one gcd, modulo the first prime
    assert certify_module._squarefree([-2, -1, 1], None)  # (t - 2)(t + 1)
    assert fields == [q0]
    # a leading coefficient divisible by the first prime moves to the next
    fields.clear()
    assert certify_module._squarefree([1, 0, q0], None)
    assert fields == [_crt_prime(1)]
    # a repeated factor: one gcd, modulo the first prime
    fields.clear()
    assert not certify_module._squarefree([2, -5, 4, -1], None)  # -(t - 1)^2 (t - 2)
    assert fields == [q0]
    # the test is one-sided: t (t - q0) is squarefree over Q, but not modulo
    # q0, and the answer is the one at the prime
    fields.clear()
    assert not certify_module._squarefree([0, -q0, 1], None)
    assert fields == [q0]


def test_exact_line_restriction_is_one_multimodular_pencil(monkeypatch):
    # over Q the restriction of Delta is the F_p pencil lifted by CRT, with
    # no exact determinant, not even det M1, and it reduces to the F_p
    # restriction
    calls = []
    for name in ("det", "det_mod"):
        real = getattr(arith, name)
        monkeypatch.setattr(
            arith, name, lambda m, p, real=real: calls.append(len(m)) or real(m, p)
        )
    lfm = action_matrix(*builtin("e6-q1"))
    rng = Rng(31)
    vec0, vec1 = ([rng.randint(-99, 99) for _ in range(lfm.coords.total)] for _ in range(2))
    m0, m1 = lfm.evaluate(vec0, None), lfm.evaluate(vec1, None)
    f = det_pencil_poly(m0, m1, None)
    assert poly_degree(f) == lfm.size == 22 and calls == []
    assert all(type(c) is int for c in f) and f[-1] == det_exact(m1)
    modular = det_pencil_poly(
        lfm.evaluate([x % P for x in vec0], P), lfm.evaluate([x % P for x in vec1], P), P
    )
    assert [c % P for c in f] == modular


@pytest.mark.parametrize("name", ["q3", "tilde-d4-ii", "tilde-d4-iii", "cycle3"])
def test_a_multiplicity_above_one_settles_not_reduced_without_a_gcd(monkeypatch, name):
    # some a_i >= 2 makes P|_L not squarefree on every line: the first line
    # settles not-reduced, and no squarefree test runs
    certify_module = importlib.import_module("qlfd.certify")
    fields = []
    real = certify_module.poly_gcd
    monkeypatch.setattr(
        certify_module, "poly_gcd", lambda f, g, p: fields.append(p) or real(f, g, p)
    )
    rep = certify(*(_cycle3() if name == "cycle3" else builtin(name)))
    assert rep.verdict == "not-reduced" and rep.stats.lines_used == 1
    assert max(c.multiplicity for c in rep.components) >= 2
    assert fields == []


def test_e8_report_needs_one_squarefree_line(report_for):
    rep = report_for("e8-central-sink")
    assert rep.verdict == "linear-free-divisor" and rep.stats.lines_used == 1


def test_squarefree_probe_without_full_degree_lines_raises(report_for, monkeypatch):
    # lines whose leading members are all singular, on a Dynkin support,
    # where d is known to be a Schur root: certify's first line, and a line
    # the certificate redraws after a product that is not squarefree
    certify_module = importlib.import_module("qlfd.certify")
    real_line = certify_module._probe_line
    singular_from = [0]

    def singular(lfm, p, seed, trial=0):
        return (None, 0) if trial >= singular_from[0] else real_line(lfm, p, seed, trial)

    monkeypatch.setattr(certify_module, "_probe_line", singular)
    with pytest.raises(CertifyError, match="every sampled line") as first:
        certify(*builtin("e6-q1"))
    singular_from[0] = 1
    monkeypatch.setattr(certify_module, "_squarefree", lambda f, p: False)
    with pytest.raises(CertifyError, match="every sampled line") as redrawn:
        _line_certificate(*_certificate_inputs(report_for, "e6-q1"), P, seed=5)
    assert first.value.stage == redrawn.value.stage == "line"


@pytest.mark.parametrize("p", [2, 3])
def test_certify_options_reject_primes_below_five(p):
    with pytest.raises(ValueError, match="prime must be at least 5"):
        CertifyOptions(prime=p)


def test_discriminant_degree_rejects_prime_at_most_twice_the_degree():
    q, d = builtin("star2")  # degree 6
    with pytest.raises(ValueError, match=r"above twice the degree: 11 <= 2 \* 6"):
        discriminant_degree(q, d, 11)
    assert discriminant_degree(q, d, 13) == 6


def test_certify_dynkin_real_roots_are_lfd(report_for):
    for name in ["a3", "a5", "d4-prop", "star2", "e6-q1"]:
        rep = report_for(name)
        assert rep.verdict == "linear-free-divisor", name
        assert rep.stats.mode == "dynkin"
        assert sum(c.degree * c.multiplicity for c in rep.components) == rep.dim_rep


@pytest.mark.parametrize("name, seed", [("e6-q1", 1056), ("d7-prop", 1167)])
def test_exact_witnesses_survive_runs_of_degenerate_draws(name, seed):
    # exact entries come from [-9, 9], so a thin witness has a zero arrow with
    # probability 1/19; at these seeds the first eight attempts for some
    # orthogonal root all degenerate
    q, d = builtin(name)
    rep = certify(q, d, CertifyOptions(seed=seed, exact=True))
    assert rep.verdict == "linear-free-divisor"


def test_certify_a5_components(report_for):
    rep = report_for("a5")
    assert rep.dim_rep == 4
    assert [c.degree for c in rep.components] == [1, 1, 1, 1]
    assert all(c.multiplicity == 1 for c in rep.components)


def test_certify_dn_prop(report_for):
    for n in (4, 6):
        rep = report_for(f"d{n}-prop")
        assert rep.verdict == "linear-free-divisor"
        assert rep.dim_rep == 4 * n - 10
        expected = sorted([2] * (n - 3) + [n - 2, n - 2])
        assert sorted(c.degree for c in rep.components) == expected


def test_certify_q2_q3(report_for):
    rep2 = report_for("q2")
    assert rep2.verdict == "linear-free-divisor"
    assert rep2.dim_rep == 36
    assert rep2.stats.mode == "advisory"
    rep3 = report_for("q3")
    assert rep3.verdict == "not-reduced"
    doubled = [c for c in rep3.components if c.multiplicity == 2]
    assert len(doubled) == 1 and doubled[0].degree == 4
    assert sum(c.degree for c in rep3.components) == 32


def test_certify_non_schur_inconclusive(report_for):
    # all 8 leading members are singular: dim End >= N + 1 - their largest
    # rank, and dim Ext^1 = dim End - q(d)
    rep = report_for("tilde-d4-iv")
    assert rep.verdict == "inconclusive"
    assert (rep.stats.brick_endomorphism_dim, rep.stats.brick_ext_dim) == (2, 1)
    assert rep.reason == (
        "generic endomorphism dimension >= 2; not a Schur root, the "
        "discriminant is the whole space"
    )
    assert rep.stats.lines_used == 0 and rep.components == []


def test_certify_rejects_bad_input():
    q, _ = builtin("a3")
    with pytest.raises(CertifyError):
        certify(q, (0, 0, 0))
    rep = certify(q, (1, 2, 1))  # q(d) = 2: not a real root
    assert rep.verdict == "inconclusive" and "not a real root" in rep.reason


def test_certify_disconnected_support():
    q, _ = builtin("a3")
    # support {1, 3} is disconnected and q(d) = 2 there
    rep = certify(q, (1, 0, 1))
    assert rep.verdict == "inconclusive"


def test_certify_single_node_support():
    q, _ = builtin("a3")
    rep = certify(q, (0, 1, 0))
    assert rep.verdict == "linear-free-divisor"
    assert rep.dim_rep == 0 and rep.components == []


def test_certify_opposite_quiver_invariance(report_for):
    for name in ["a3", "d4-prop", "e6-q1"]:
        q, d = builtin(name)
        rep = report_for(name)
        opp = certify(opposite_quiver(q), d)
        assert opp.verdict == rep.verdict, name
        assert sorted(c.degree for c in opp.components) == sorted(
            c.degree for c in rep.components
        )


def test_certify_invariant_under_relabeling(report_for):
    q, d = builtin("d4-prop")
    perm = [2, 0, 3, 1]
    nodes = [q.nodes[i] for i in perm]
    arrows = [(a.name, a.tail, a.head) for a in q.arrows]
    q2 = build_quiver(nodes, arrows, name="d4-relabeled")
    d2 = tuple(d[q.index[x]] for x in nodes)
    rep = certify(q2, d2)
    base = report_for("d4-prop")
    assert rep.verdict == base.verdict
    assert sorted(c.degree for c in rep.components) == sorted(
        c.degree for c in base.components
    )


def test_certify_exact_mode_small_fixture():
    q, d = builtin("a4")
    rep = certify(q, d, CertifyOptions(exact=True))
    assert rep.verdict == "linear-free-divisor"
    assert rep.stats.unit_ratio in ("1", "-1")


def test_exact_bound_comes_from_the_line_sample_range(report_for):
    # an exact line draws each coordinate from [-99, 99], 199 values, so the
    # bound is dim Rep / 199 and does not depend on the prime
    rep = report_for("e6-q1", exact=True)
    assert rep.verdict == "linear-free-divisor" and rep.dim_rep == 22
    assert rep.stats.ratio_point_bound_log2 == math.log2(22) - math.log2(199)
    assert round(rep.stats.ratio_point_bound_log2, 2) == -3.18


def test_certify_exact_mode_guards():
    # non-Dynkin support is refused
    q, d = builtin("star4")
    with pytest.raises(CertifyError):
        certify(q, d, CertifyOptions(exact=True))
    # oversize request is refused (dim Rep = 46 > 24)
    q7, d7 = builtin("e7-highroot")
    with pytest.raises(CertifyError):
        certify(q7, d7, CertifyOptions(exact=True))


def test_report_serialization_shape(report_for):
    rep = report_for("e6-q1")
    doc = rep.to_dict()
    assert doc["schema_version"] == 2
    assert doc["verdict"] == "linear-free-divisor"
    assert len(doc["components"]) == 5
    for c in doc["components"]:
        assert set(c) >= {"id", "root", "weight", "minus_weight", "degree", "multiplicity"}
    assert doc["stats"]["prime"] == P


E6_Q1_TABLE = {
    # root -> (degree, -weight); derived from the weight formulas by hand and
    # confirmed by the group action and the factorization identity
    (0, 0, 1, 1, 0, 0): (4, (0, 0, 0, 1, 0, -1)),
    (0, 1, 1, 0, 0, 0): (4, (0, 1, 0, 0, 0, -1)),
    (0, 1, 1, 1, 1, 1): (4, (0, 1, -1, 0, 1, 0)),
    (1, 1, 1, 1, 0, 1): (4, (1, 0, -1, 1, 0, 0)),
    (1, 1, 2, 1, 1, 1): (6, (1, 0, 0, 0, 1, -1)),
}

E6_Q2_TABLE = {
    (0, 0, 1, 1, 0, 0): (4, (0, 0, 1, 0, -1, -1)),
    (0, 1, 1, 0, 0, 1): (4, (0, 1, 0, -1, 0, 0)),
    (0, 1, 1, 1, 1, 0): (4, (0, 1, 0, 0, 0, -1)),
    (1, 1, 1, 1, 0, 1): (4, (1, 0, 0, 0, -1, 0)),
    (1, 1, 2, 1, 1, 1): (6, (1, 0, 1, -1, 0, -1)),
}


def test_certify_e6_component_tables(report_for):
    for name, table in [("e6-q1", E6_Q1_TABLE), ("e6-q2", E6_Q2_TABLE)]:
        rep = report_for(name)
        by_root = {c.root: c for c in rep.components}
        assert set(by_root) == set(table), name
        for root, (deg, minus_w) in table.items():
            assert by_root[root].degree == deg, (name, root)
            assert tuple(-x for x in by_root[root].weight) == minus_w, (name, root)


def test_certify_random_dynkin_roots_always_lfd():
    # every positive root of a Dynkin quiver is a real Schur root, so the
    # verdict must be linear-free-divisor regardless of orientation or
    # support; exercises support restriction on non-sincere roots
    from qlfd.arith import Rng
    from qlfd.roots import positive_roots

    rng = Rng(424242)
    for base in ["a5", "d5-prop", "e6-q1"]:
        q, _ = builtin(base)
        roots = positive_roots(q)
        for trial in range(6):
            mask = rng.below(1 << q.arrow_count)
            arrows = [
                (a.name, a.head, a.tail) if (mask >> i) & 1 else (a.name, a.tail, a.head)
                for i, a in enumerate(q.arrows)
            ]
            flipped = build_quiver(q.nodes, arrows, name=f"{base}-flip{mask}")
            d = roots[rng.below(len(roots))]
            rep = certify(flipped, d)
            assert rep.verdict == "linear-free-divisor", (base, mask, d)
            assert sum(c.degree * c.multiplicity for c in rep.components) == rep.dim_rep
            support_size = sum(1 for x in d if x)
            assert len(rep.components) == support_size - 1


def test_certify_kronecker_parallel_arrows():
    # parallel arrows: the 2-arrow quiver with d = (2, 1) has a single
    # component (Kac count 2 - 1), the 2x2 determinant, squared
    k2 = build_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], name="kronecker")
    rep = certify(k2, (2, 1))
    assert rep.verdict == "not-reduced"
    assert rep.dim_rep == 4
    assert [(c.root, c.degree, c.multiplicity) for c in rep.components] == [
        ((1, 0), 2, 2)
    ]
    assert rep.stats.lines_used == 1


def test_certify_verdicts_stable_across_seeds():
    for name, expect in [("tilde-d4-ii", "not-reduced"), ("star3", "linear-free-divisor")]:
        q, d = builtin(name)
        for seed in (1, 7, 1001, 2**40 + 5, 987654321):
            rep = certify(q, d, CertifyOptions(seed=seed))
            assert rep.verdict == expect, (name, seed, rep.reason)


def test_brick_probe_deterministic():
    # the line, with the brick its leading member proves, is a function of
    # the seed; a non-Schur root reports the same rank at the same seed
    certify_module = importlib.import_module("qlfd.certify")
    for name in ("e6-q1", "tilde-d4-iv"):
        lfm = action_matrix(*builtin(name))
        line, rank = certify_module._probe_line(lfm, P, seed=99)
        assert (line, rank) == certify_module._probe_line(lfm, P, seed=99)
        assert (line is None) == (name == "tilde-d4-iv")
        assert rank == lfm.size if line else rank < lfm.size


def test_component_weights_orthogonal_to_d(report_for):
    # the defining linear relation: every component weight pairs to zero with d
    for name in ["a4", "d5-prop", "e6-q1", "q2", "tilde-d4-ii"]:
        rep = report_for(name)
        for c in rep.components:
            assert sum(w * x for w, x in zip(c.weight, rep.dims)) == 0, name


def test_certify_unbalanced_cycle_not_reduced():
    rep = certify(*_cycle3())
    assert rep.verdict == "not-reduced"
    assert rep.reason == "multiplicities (1,2)"
    assert [(c.degree, c.multiplicity) for c in rep.components] == [(1, 1), (2, 2)]


def test_reported_degrees_match_degree_of_on_a_fresh_witness(report_for):
    # reported degrees come from the level-function formula; degree_of
    # measures them on a witness the pipeline never drew
    from qlfd.fixtures import builtin_names
    from qlfd.repmatrix import random_representation

    checked = 0
    for name in builtin_names():
        q, d = builtin(name)
        for i, c in enumerate(report_for(name).components):
            w = random_representation(q, c.root, P, seed=1000 + i)
            assert degree_of(SchofieldHandle(c.root, w, d), P, seed=2000 + i) == c.degree, name
            checked += 1
    assert checked >= 100


def _cycle3():
    # 1->2, 2->3, 1->3 with d = (1, 1, 2): no level function
    q = build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    return q, (1, 1, 2)


def test_cycle3_degrees_are_read_off_the_pencils(monkeypatch):
    # a level support declares every degree to the certificate; cycle3 has
    # none, so each degree is read off its witness's pencil
    certify_module = importlib.import_module("qlfd.certify")
    declared = []
    real = certify_module.sample_generic_witness

    def recording(e, v0, v1, seed, degree=None):
        declared.append(degree)
        return real(e, v0, v1, seed, degree)

    monkeypatch.setattr(certify_module, "sample_generic_witness", recording)
    rep = certify(*builtin("e7-highroot"))
    assert None not in declared
    assert sorted(declared) == sorted(c.degree for c in rep.components)
    declared.clear()
    rep = certify(*_cycle3())
    assert rep.verdict == "not-reduced"
    assert [c.degree for c in rep.components] == [1, 2]
    assert declared == [None, None]
    assert not hasattr(importlib.import_module("qlfd.semiinv"), "degree_of")


def test_a_low_degree_reading_is_never_definitive(monkeypatch):
    # with vec0 = 0 every h(V0) is 0, so each degree read off a pencil comes
    # out too low: the weighted degree sum or the identity must fail
    certify_module = importlib.import_module("qlfd.certify")
    real = certify_module._probe_line

    def through_the_origin(lfm, p, seed, trial=0):
        (vec0, vec1, delta1), rank = real(lfm, p, seed, trial)
        return ([0] * len(vec0), vec1, delta1), rank

    monkeypatch.setattr(certify_module, "_probe_line", through_the_origin)
    for seed in range(1, 6):
        rep = certify(*_cycle3(), CertifyOptions(seed=seed))
        assert not rep.definitive and rep.verdict == "inconclusive"
        assert rep.reason in (
            "weighted degree sum 0 != dim Rep = 5",
            "factorization identity fails on the probe line",
        ), rep.reason


@pytest.mark.parametrize(
    "name, exact",
    [("e8-central-sink", False), ("star7", False), ("q3", False), ("e6-q1", True), ("cycle3", False)],
)
def test_each_handle_costs_one_pencil_and_no_evaluation(monkeypatch, name, exact):
    # the witness is accepted on the certificate line by its pencil, and
    # nothing else touches the handle: no weight check, no evaluation at a
    # separate point, and the only representations drawn on the certificate
    # are the witnesses of the roots with no tree witness
    certify_module = importlib.import_module("qlfd.certify")
    pencils = _counting_pencils(monkeypatch)
    evaluations, drawn, active = [], [], [False]
    evaluate = SchofieldHandle.evaluate
    monkeypatch.setattr(
        SchofieldHandle, "evaluate", lambda h, v: evaluations.append(h.root) or evaluate(h, v)
    )
    real_draw = importlib.import_module("qlfd.repmatrix").random_representation

    def drawing(q, d, p, seed):
        if active[0]:
            drawn.append(tuple(d))
        return real_draw(q, d, p, seed)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "qlfd" and getattr(
            module, "random_representation", None
        ) is real_draw:
            monkeypatch.setattr(module, "random_representation", drawing)
    real_certificate = certify_module.line_certificate

    def certificate(*args, **kwargs):
        active[0] = True
        try:
            return real_certificate(*args, **kwargs)
        finally:
            active[0] = False

    monkeypatch.setattr(certify_module, "line_certificate", certificate)
    q, d = _cycle3() if name == "cycle3" else builtin(name)
    rep = certify(q, d, CertifyOptions(exact=exact))
    assert rep.definitive and rep.stats.lines_used == 1
    roots = sorted(c.root for c in rep.components)
    assert len(pencils) == len(roots)
    assert evaluations == []
    assert sorted(drawn) == [e for e in roots if tree_representation(q, e, None) is None]


def test_e8_meets_each_sparsity_pattern_once_but_the_delta_pair(monkeypatch):
    # at the default seed E8 meets 8 patterns: A(vec1), whose plan A(vec0)
    # replays through the one compiled schedule, and one M(W, V1) per
    # handle, factored by the search in its pencil and never seen again
    calls = {}

    def counting(name, real):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return wrapper

    for name in ("_search_mod", "_compile_schedule", "_run_schedule"):
        monkeypatch.setattr(arith, name, counting(name, getattr(arith, name)))
    monkeypatch.setattr(arith, "_PLANS", type(arith._PLANS)())
    rep = certify(*builtin("e8-central-sink"))
    assert rep.verdict == "linear-free-divisor" and len(rep.components) == 7
    assert calls == {"_search_mod": 8, "_compile_schedule": 1, "_run_schedule": 1}


def test_small_prime_verdict_is_inconclusive(report_for):
    q, d = builtin("a4")
    rep = certify(q, d, CertifyOptions(prime=7))
    assert rep.verdict == "inconclusive"
    assert rep.stats.ratio_point_bound_log2 > -40
    # dim Rep / p = 3 / 7
    assert "2^-1.2" in rep.reason and "2^-40" in rep.reason
    assert len(rep.components) == 3  # the table is still reported
    default = report_for("a4")
    assert default.verdict == "linear-free-divisor"
    assert default.stats.ratio_point_bound_log2 < -40


def _ten_node_indefinite():
    # s0, s1 -> 6 and t0..t5 -> 7 -> 6 with d = 1 everywhere except d_7 = 6:
    # q(d) = 1 and a brick, with q indefinite on d-perp; a box of candidate
    # roots 0 <= e_x <= d_x + max(d) would hold about 2.2e8 points
    nodes = ["s0", "s1"] + [f"t{i}" for i in range(6)] + ["6", "7"]
    arrows = [(f"a{i}", f"s{i}", "6") for i in range(2)]
    arrows += [(f"b{i}", f"t{i}", "7") for i in range(6)] + [("c", "7", "6")]
    return build_quiver(nodes, arrows, name="ten-node"), (1,) * 9 + (6,)


def _wide_box_tree():
    # a random tree, indefinite on d-perp, with 2847 candidate roots in the
    # box 0 <= e_x <= d_x + max(d)
    arrows = ["01", "12", "32", "14", "52", "26", "07"]
    nodes = [str(i) for i in range(8)]
    q = build_quiver(nodes, [(f"a{i}", t, h) for i, (t, h) in enumerate(arrows)], name="tree")
    return q, (3, 4, 4, 4, 2, 2, 2, 3)


@pytest.mark.parametrize(
    "make,mults",
    [(_ten_node_indefinite, [1, 1, 1, 1, 1, 1, 1, 1, 5]), (_wide_box_tree, [1, 1, 1, 1, 2, 3, 4])],
    ids=["ten-node", "tree"],
)
def test_indefinite_inputs_certify_in_seconds(make, mults, tmp_path):
    # q is indefinite on d-perp for both; the simples need no enumeration
    from qlfd.cli import main
    from qlfd.qfile import serialize

    q, d = make()
    start = time.perf_counter()
    rep = certify(q, d)
    assert time.perf_counter() - start < 5
    assert rep.verdict == "not-reduced"
    assert sorted(c.multiplicity for c in rep.components) == mults
    path = tmp_path / "input.quiver"
    path.write_text(serialize(q, d))
    start = time.perf_counter()
    assert main(["certify", "--file", str(path)]) == 0
    assert time.perf_counter() - start < 5


def test_reflection_state_bound_is_an_orthogonal_roots_error(monkeypatch, capsys):
    # q3's search visits 8 states
    from qlfd.cli import main

    roots_module = importlib.import_module("qlfd.roots")
    monkeypatch.setattr(roots_module, "MAX_REFLECTION_STATES", 5)
    with pytest.raises(CertifyError, match="within 5 reflection states") as exc:
        certify(*builtin("q3"))
    assert exc.value.stage == "orthogonal-roots"
    assert main(["certify", "--builtin", "q3"]) == 1
    assert capsys.readouterr().err.startswith("error: [orthogonal-roots] no (A) or (D) move")


@pytest.mark.parametrize("name", ["e6-q1", "q2"])
def test_degenerate_witness_is_a_witness_error_in_both_modes(monkeypatch, name):
    certify_module = importlib.import_module("qlfd.certify")

    def degenerate(*args, **kwargs):
        raise DegenerateWitnessError("no witness")

    monkeypatch.setattr(certify_module, "sample_generic_witness", degenerate)
    with pytest.raises(CertifyError) as exc:
        certify(*builtin(name))
    assert exc.value.stage == "witnesses"


def test_certify_star8_uses_lattice_roots():
    q, d = builtin("star8")
    assert q.node_count == 10
    rep = certify(q, d)
    assert rep.verdict == "linear-free-divisor"
    assert len(rep.components) == 9
