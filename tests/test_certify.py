import importlib
import time

import pytest

from qlfd.arith import DEFAULT_PRIME
from qlfd.certify import (
    MAX_BOX_SCAN_POINTS,
    CertifyError,
    CertifyOptions,
    certify,
    discriminant_degree,
    multiplicity_vector,
    squarefree_probe,
    verify_factorization,
)
from qlfd.fixtures import builtin
from qlfd.quiver import build_quiver, opposite_quiver, tits_form
from qlfd.roots import lattice_roots
from qlfd.semiinv import SchofieldHandle, sample_generic_witness, weight_of_schofield

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


@pytest.mark.parametrize("field", ["ratio_trials", "squarefree_lines"])
@pytest.mark.parametrize("value", [0, -3])
def test_certify_options_reject_counts_below_one(field, value):
    with pytest.raises(ValueError, match=field):
        CertifyOptions(**{field: value})


@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 7])
def test_certify_options_reject_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        CertifyOptions(seed=seed)


def test_certify_options_accept_seed_range_ends():
    assert CertifyOptions(seed=0).seed == 0
    assert CertifyOptions(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("modulus", [8, 1, 2**89 - 1])
def test_certify_options_reject_bad_cross_check_prime(modulus):
    # rejected when the options are built, before any stage runs
    with pytest.raises(ValueError, match="modulus"):
        CertifyOptions(cross_check_prime=modulus)


def test_certify_options_accept_cross_check_prime():
    assert CertifyOptions(cross_check_prime=101).cross_check_prime == 101


def test_certify_options_reject_cross_check_prime_in_exact_mode():
    with pytest.raises(ValueError, match="cross_check_prime"):
        CertifyOptions(exact=True, cross_check_prime=101)


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
    # a node row that repeats another is skipped for Cramer's rule
    assert multiplicity_vector(q, d, [(-1, 0, 1)]) == [1]


def _refuse_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stage sampled before the primes were checked")

    certify_module = importlib.import_module("qlfd.certify")
    monkeypatch.setattr(certify_module, "sample_generic_witness", refuse)
    monkeypatch.setattr(certify_module, "lattice_roots", refuse)


def test_certify_checks_the_prime_before_any_stage(monkeypatch):
    _refuse_sampling(monkeypatch)
    q, d = builtin("e8-central-sink")
    with pytest.raises(ValueError) as err:
        certify(q, d, CertifyOptions(prime=233))
    assert str(err.value) == (
        "option prime needs a prime above twice the degree: 233 <= 2 * 118"
    )


def test_certify_checks_the_cross_check_prime_before_any_stage(monkeypatch):
    _refuse_sampling(monkeypatch)
    q, d = builtin("e6-q1")
    with pytest.raises(ValueError) as err:
        certify(q, d, CertifyOptions(cross_check_prime=41))
    assert str(err.value) == (
        "option cross_check_prime needs a prime above twice the degree: 41 <= 2 * 22"
    )


def test_exact_certify_does_not_use_the_prime():
    # the prime is not used over Q, so it is not checked against dim Rep
    q, d = builtin("a5")
    rep = certify(q, d, CertifyOptions(prime=5, exact=True))
    assert rep.verdict == "linear-free-divisor"


def test_verify_factorization_a3():
    q, d = builtin("a3")
    handles = []
    for e in [(1, 0, 0), (0, 1, 0)]:
        w, deg = sample_generic_witness(q, e, d, P, seed=3)
        h = SchofieldHandle(e, w, d)
        h.degree = deg
        handles.append(h)
    ok, unit, _ = verify_factorization(q, d, handles, [1, 1], P, 20, seed=4)
    assert ok
    assert unit in (1, P - 1)


def test_squarefree_probe_fixtures():
    qa, da = builtin("a3")
    ok, votes = squarefree_probe(qa, da, P, trials=5, seed=5)
    assert ok and all(votes)
    qii, dii = builtin("tilde-d4-ii")
    ok2, votes2 = squarefree_probe(qii, dii, P, trials=5, seed=6)
    assert not ok2 and not any(votes2)
    q6, d6 = builtin("e6-q1")
    ok3, _ = squarefree_probe(q6, d6, P, trials=5, seed=7)
    assert ok3
    # over Q, by the integer remainder sequence of poly_gcd
    ok4, votes4 = squarefree_probe(qii, dii, None, trials=3, seed=6)
    assert not ok4 and not any(votes4)
    q7, d7 = builtin("d7-prop")
    ok5, votes5 = squarefree_probe(q7, d7, None, trials=3, seed=7)
    assert ok5 and all(votes5)


def test_squarefree_probe_one_squarefree_vote_proves_reduced(monkeypatch):
    # each trial takes its first full-degree line; one squarefree restriction
    # is a proof, whatever the other trials vote
    q, d = builtin("a3")  # dim Rep 2
    square = [1, P - 2, 1]  # (t - 1)^2
    distinct = [2, P - 3, 1]  # (t - 1)(t - 2)
    lines = [None, square, square, None, None, distinct, square, square]
    drawn = iter(lines)
    certify_module = importlib.import_module("qlfd.certify")
    monkeypatch.setattr(certify_module, "_line_restriction_poly", lambda *_: next(drawn))
    ok, votes = squarefree_probe(q, d, P, trials=5, seed=5)
    # the probe stops at the proof: no line after the sixth is drawn
    assert ok and votes == [False, False, True]
    assert len(list(drawn)) == len(lines) - 6


def test_squarefree_probe_not_reduced_runs_every_trial():
    # tilde-d4-ii has a component of multiplicity 2: no line votes squarefree
    q, d = builtin("tilde-d4-ii")
    ok, votes = squarefree_probe(q, d, P, trials=4, seed=5)
    assert not ok and votes == [False] * 4


def test_e8_report_needs_one_squarefree_line(report_for):
    assert report_for("e8-central-sink").stats.squarefree_votes == (True,)


def test_squarefree_probe_without_full_degree_lines_raises():
    # tilde-d4-iv is not a Schur root: the discriminant vanishes identically,
    # so no line has an invertible leading member
    q, d = builtin("tilde-d4-iv")
    with pytest.raises(CertifyError, match="every sampled line") as info:
        squarefree_probe(q, d, P, trials=1, seed=5)
    assert info.value.stage == "squarefree"


@pytest.mark.parametrize("p", [2, 3])
def test_certify_options_reject_primes_below_five(p):
    with pytest.raises(ValueError, match="prime must be at least 5"):
        CertifyOptions(prime=p)
    with pytest.raises(ValueError, match="cross_check_prime must be at least 5"):
        CertifyOptions(cross_check_prime=p)


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
    rep = report_for("tilde-d4-iv")
    assert rep.verdict == "inconclusive"
    assert rep.stats.brick_endomorphism_dim >= 2
    assert "Schur" in rep.reason


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
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "linear-free-divisor"
    assert len(doc["components"]) == 5
    for c in doc["components"]:
        assert set(c) >= {"id", "root", "weight", "minus_weight", "degree", "multiplicity"}
    assert doc["stats"]["prime"] == P


E6_Q1_TABLE = {
    # root -> (degree, -weight); derived from the weight formulas by hand and
    # confirmed by the operational weight check and the factorization identity
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
    assert not any(rep.stats.squarefree_votes)


def test_certify_multi_prime_cross_check():
    second = 2305843009213693967  # another 62-bit prime
    q, d = builtin("e6-q1")
    rep = certify(q, d, CertifyOptions(cross_check_prime=second))
    assert rep.verdict == "linear-free-divisor"
    assert any("agreed" in note for note in rep.stats.notes)
    qii, dii = builtin("tilde-d4-ii")
    rep2 = certify(qii, dii, CertifyOptions(cross_check_prime=second))
    assert rep2.verdict == "not-reduced"


def test_certify_verdicts_stable_across_seeds():
    for name, expect in [("tilde-d4-ii", "not-reduced"), ("star3", "linear-free-divisor")]:
        q, d = builtin(name)
        for seed in (1, 7, 1001, 2**40 + 5, 987654321):
            rep = certify(q, d, CertifyOptions(seed=seed))
            assert rep.verdict == expect, (name, seed, rep.reason)


def test_brick_probe_deterministic():
    from qlfd.roots import brick_probe

    q, d = builtin("e6-q1")
    a = brick_probe(q, d, P, seed=99, trials=4)
    b = brick_probe(q, d, P, seed=99, trials=4)
    assert a == b


def test_component_weights_orthogonal_to_d(report_for):
    # the defining linear relation: every component weight pairs to zero with d
    for name in ["a4", "d5-prop", "e6-q1", "q2", "tilde-d4-ii"]:
        rep = report_for(name)
        for c in rep.components:
            assert sum(w * x for w, x in zip(c.weight, rep.dims)) == 0, name


def test_certify_unbalanced_cycle_not_reduced():
    # non-tree support: 1->2, 2->3, 1->3 with d = (1,1,2)
    q = build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    rep = certify(q, (1, 1, 2))
    assert rep.verdict == "not-reduced"
    assert rep.reason == "multiplicities (1,2)"
    assert [(c.degree, c.multiplicity) for c in rep.components] == [(1, 1), (2, 2)]


def _potential(q):
    """phi with phi(head) - phi(tail) = 1 on every arrow of a tree quiver."""
    phi = {q.nodes[0]: 0}
    while len(phi) < q.node_count:
        for a in q.arrows:
            if a.tail in phi and a.head not in phi:
                phi[a.head] = phi[a.tail] + 1
            elif a.head in phi and a.tail not in phi:
                phi[a.tail] = phi[a.head] - 1
    return [phi[x] for x in q.nodes]


def test_reported_degrees_match_tree_potential_formula(report_for):
    from qlfd.fixtures import builtin_names

    checked = 0
    for name in builtin_names():
        q, d = builtin(name)
        assert q.arrow_count == q.node_count - 1  # every builtin is a tree
        phi = _potential(q)
        for c in report_for(name).components:
            assert c.degree == sum(f * x * w for f, x, w in zip(phi, d, c.weight)), name
            checked += 1
    assert checked >= 100


def test_small_prime_verdict_is_inconclusive(report_for):
    q, d = builtin("a4")
    rep = certify(q, d, CertifyOptions(prime=7))
    assert rep.verdict == "inconclusive"
    assert rep.stats.ratio_point_bound_log2 > -40
    assert "2^-0.2" in rep.reason and "2^-40" in rep.reason
    assert len(rep.components) == 3  # the table is still reported
    default = report_for("a4")
    assert default.verdict == "linear-free-divisor"
    assert default.stats.ratio_point_bound_log2 < -40


def _ten_node_indefinite():
    # s0, s1 -> 6 and t0..t5 -> 7 -> 6 with d = 1 everywhere except d_7 = 6:
    # q(d) = 1 and a brick, but q is indefinite on d-perp and the candidate
    # box has about 2.2e8 points
    nodes = ["s0", "s1"] + [f"t{i}" for i in range(6)] + ["6", "7"]
    arrows = [(f"a{i}", f"s{i}", "6") for i in range(2)]
    arrows += [(f"b{i}", f"t{i}", "7") for i in range(6)] + [("c", "7", "6")]
    return build_quiver(nodes, arrows, name="ten-node"), (1,) * 9 + (6,)


def test_box_scan_guard_fails_fast_on_ten_node_indefinite_input(tmp_path):
    from qlfd.cli import main
    from qlfd.qfile import serialize

    q, d = _ten_node_indefinite()
    assert tits_form(q, d) == 1 and lattice_roots(q, d) is None
    start = time.perf_counter()
    with pytest.raises(CertifyError, match=r"would visit 218103808 points") as exc:
        certify(q, d)
    assert time.perf_counter() - start < 5
    assert exc.value.stage == "orthogonal-roots"
    assert "not positive definite" in str(exc.value)
    assert str(MAX_BOX_SCAN_POINTS) in str(exc.value)
    path = tmp_path / "ten.quiver"
    path.write_text(serialize(q, d))
    assert main(["certify", "--file", str(path)]) == 1


def test_advisory_candidate_limit_refuses_long_lists(monkeypatch, capsys):
    # q3's box scan yields 39 candidates, one more than a limit of 38
    from qlfd.cli import main

    certify_module = importlib.import_module("qlfd.certify")
    monkeypatch.setattr(certify_module, "MAX_ADVISORY_CANDIDATES", 38)
    with pytest.raises(CertifyError, match=r"found 39 candidates \(limit 38\)") as exc:
        certify(*builtin("q3"))
    assert exc.value.stage == "orthogonal-roots"
    assert main(["certify", "--builtin", "q3"]) == 1
    assert "found 39 candidates (limit 38)" in capsys.readouterr().err


def test_certify_star8_uses_lattice_roots():
    q, d = builtin("star8")
    assert q.node_count == 10
    rep = certify(q, d)
    assert rep.verdict == "linear-free-divisor"
    assert len(rep.components) == 9


def test_box_scan_only_on_indefinite_lattices(monkeypatch):
    # the package exports the function ``certify`` under the module's name
    certify_module = importlib.import_module("qlfd.certify")
    scanned = []
    real_scan = certify_module._advisory_candidate_roots

    def spy(q, d):
        scanned.append(q.name)
        return real_scan(q, d)

    monkeypatch.setattr(certify_module, "_advisory_candidate_roots", spy)
    for name in ["a4", "star4", "q2", "tilde-d4-ii", "q3"]:
        q, d = builtin(name)
        certify(q, d)
    assert scanned == ["q3"]
