"""End-to-end certification: decide whether the discriminant of non-rigid
representations is a linear free divisor and emit the component table.

Pipeline: support restriction, real-root check, orthogonal roots, semigroup
basis, witnesses, degrees and weights, multiplicity vector, factorization
verification, squarefree probe.  On a Dynkin support the component list is
guaranteed; on other acyclic supports the pipeline runs in advisory mode and
requires its two independent reducedness signals (integral multiplicities;
random-line squarefreeness) to agree, reporting inconclusive otherwise.

The orthogonal roots come from ``lattice_roots``, which lists every real root
in the lattice orthogonal to d whenever the Tits form is positive definite
there (always on a Dynkin support).  Only a lattice where it is indefinite
falls back to the heuristic box scan of ``_advisory_candidate_roots``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import (
    DEFAULT_PRIME,
    PrimeField,
    Rng,
    derive_seed,
    det,
    det_pencil_poly,
    interpolate,
    poly_degree,
    poly_deriv,
    poly_gcd,
    power,
    rank,
    reduce,
)
from .quiver import (
    Quiver,
    classify_underlying_graph,
    embed_vector,
    euler_matrix,
    is_acyclic,
    support_subquiver,
    tits_form,
)
from .repmatrix import (
    action_matrix,
    defect_matrix,
    random_representation,
)
from .roots import brick_probe, lattice_roots, semigroup_basis
from .semiinv import (
    DegenerateWitnessError,
    SchofieldHandle,
    discriminant_weight,
    root_support_type,
    sample_generic_witness,
    verify_weight,
    weight_of_schofield,
    weight_support_type,
)

DEFAULT_SEED = 1729

VERDICT_LFD = "linear-free-divisor"
VERDICT_NOT_REDUCED = "not-reduced"
VERDICT_INCONCLUSIVE = "inconclusive"

# A modular verdict is definitive only when a false factorization identity
# survives a ratio-check point with probability below 2**-40.
MAX_POINT_BOUND_LOG2 = -40

# Largest box the candidate scan may visit on a lattice where the Tits form
# is not positive definite (a few seconds of scanning).
MAX_BOX_SCAN_POINTS = 10**7

# Most candidates the box scan may hand on: each one costs up to two witness
# determinants in the nonvanishing filter, and the survivors feed the
# semigroup basis (q3, the most of any builtin, has 39).
MAX_ADVISORY_CANDIDATES = 200


class CertifyError(RuntimeError):
    """Hard failure of a pipeline stage (inputs the pipeline cannot accept,
    or an internal consistency check that should never fail)."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class CertifyOptions:
    prime: int = DEFAULT_PRIME
    seed: int = DEFAULT_SEED
    ratio_trials: int = 20
    # at most this many squarefree trials: the first squarefree line proves
    # the discriminant reduced, so only a not-reduced verdict uses them all
    squarefree_lines: int = 5
    exact: bool = False  # exact rational evaluations; small Dynkin fixtures only
    # optional paranoia: repeat the factorization and squarefree checks under
    # a second prime and require agreement
    cross_check_prime: int | None = None

    def __post_init__(self):
        for name in ("ratio_trials", "squarefree_lines"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # the random streams use the seed modulo 2**64; a seed outside that
        # range would be reported as given but behave as another seed
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.exact and self.cross_check_prime is not None:
            raise ValueError(
                "cross_check_prime repeats modular checks; exact mode has none "
                "to repeat"
            )
        for name in ("prime", "cross_check_prime"):
            value = getattr(self, name)
            if value is None:
                continue
            PrimeField(value)
            if value < 5:
                # random_scalar draws from [2, p - 2]
                raise ValueError(f"{name} must be at least 5, got {value}")


@dataclass
class Component:
    handle_id: str
    root: tuple
    weight: tuple
    degree: int
    multiplicity: int
    handle_kind: str
    type_root: str
    type_weight: str

    def to_dict(self):
        return {
            "id": self.handle_id,
            "root": list(self.root),
            "weight": list(self.weight),
            "minus_weight": [-x for x in self.weight],
            "degree": self.degree,
            "multiplicity": self.multiplicity,
            "handle": self.handle_kind,
            "type_root": self.type_root,
            "type_weight": self.type_weight,
        }


@dataclass
class VerificationStats:
    prime: int
    seed: int
    ratio_trials: int
    squarefree_lines: int
    mode: str = ""
    unit_ratio: int | str | None = None
    ratio_deviations: int | None = None
    ratio_point_bound_log2: float | None = None
    squarefree_votes: tuple = ()
    brick_endomorphism_dim: int | None = None
    brick_ext_dim: int | None = None
    notes: tuple = ()

    def to_dict(self):
        return {
            "prime": self.prime,
            "seed": self.seed,
            "ratio_trials": self.ratio_trials,
            "squarefree_lines": self.squarefree_lines,
            "mode": self.mode,
            "unit_ratio": self.unit_ratio,
            "ratio_deviations": self.ratio_deviations,
            "ratio_point_bound_log2": self.ratio_point_bound_log2,
            "squarefree_votes": list(self.squarefree_votes),
            "brick_endomorphism_dim": self.brick_endomorphism_dim,
            "brick_ext_dim": self.brick_ext_dim,
            "notes": list(self.notes),
        }


@dataclass
class LfdReport:
    quiver_name: str
    nodes: tuple
    dims: tuple
    dim_rep: int | None
    disc_weight: tuple
    components: list[Component]
    verdict: str
    reason: str | None
    stats: VerificationStats

    @property
    def definitive(self) -> bool:
        return self.verdict in (VERDICT_LFD, VERDICT_NOT_REDUCED)

    def to_dict(self):
        return {
            "schema_version": 1,
            "quiver": self.quiver_name,
            "nodes": list(self.nodes),
            "dimension_vector": list(self.dims),
            "dim_rep": self.dim_rep,
            "discriminant_weight": list(self.disc_weight),
            "discriminant_minus_weight": [-x for x in self.disc_weight],
            "components": [c.to_dict() for c in self.components],
            "verdict": self.verdict,
            "reason": self.reason,
            "stats": self.stats.to_dict(),
        }


# ---------------------------------------------------------------------------
# Stage operations (usable standalone)


def _random_coordinate_vector(lfm, p: int | None, rng: Rng):
    """Uniform over F_p, or in [-99, 99] over Q."""
    if p is None:
        return [rng.randint(-99, 99) for _ in range(lfm.coords.total)]
    return [rng.below(p) for _ in range(lfm.coords.total)]


def _line_restriction_poly(lfm, p: int | None, rng: Rng):
    """det of the action matrix along a random affine line vec0 + t*vec1, as
    a univariate polynomial over F_p or Q, when it has full degree
    ``lfm.size``; None otherwise.

    Every cell of the action matrix A is a signed coordinate, so det A is
    homogeneous of degree ``size`` and its coefficient of t^size along the
    line is det A(vec1): a line counts exactly when A(vec1) is invertible.
    Over F_p the pencil kernel computes the restriction; over Q it is
    interpolated from size + 1 values.
    """
    vec0 = _random_coordinate_vector(lfm, p, rng)
    vec1 = _random_coordinate_vector(lfm, p, rng)
    if p is not None:
        return det_pencil_poly(lfm.evaluate(vec0, p), lfm.evaluate(vec1, p), p)
    points = []
    for t in range(lfm.size + 1):
        vec = [a + t * b for a, b in zip(vec0, vec1)]
        points.append((t, det(lfm.evaluate(vec, None), None)))
    poly = interpolate(points)
    return poly if poly_degree(poly) == lfm.size else None


def _require_prime_above_twice(p: int | None, degree: int, what: str):
    """Both the degree proof and the squarefree test need p > 2 * degree."""
    if p is not None and p <= 2 * max(degree, 1):
        raise ValueError(
            f"{what} needs a prime above twice the degree: "
            f"{p} <= 2 * {max(degree, 1)}"
        )


def discriminant_degree(
    q: Quiver, d, p: int | None = DEFAULT_PRIME, seed: int = DEFAULT_SEED
) -> int:
    """Degree of the discriminant's equation over F_p, or over Q when ``p``
    is None: sum over arrows of d(tail) * d(head), proved by one
    determinant.

    det A is homogeneous of degree ``size`` (see ``_line_restriction_poly``),
    so one nonzero det A(v) at a random point proves that the degree equals
    the formula value.
    """
    d = tuple(int(x) for x in d)
    formula = sum(d[t] * d[h] for t, h in zip(q.tails, q.heads))
    lfm = action_matrix(q, d)
    if lfm.size != formula:
        raise CertifyError("discriminant-degree", "action matrix size mismatch")
    if formula == 0:
        return 0
    _require_prime_above_twice(p, formula, "discriminant_degree")
    rng = Rng(seed)
    for attempt in range(6):
        vec = _random_coordinate_vector(lfm, p, rng.split(attempt))
        if det(lfm.evaluate(vec, p), p):
            return formula
    raise CertifyError(
        "discriminant-degree",
        "determinant vanishes at every sampled point; "
        "the dimension vector is likely not a Schur root",
    )


def multiplicity_vector(q: Quiver, d, weights) -> list[int]:
    """The unique solution a of sum a_i w_i = w(discriminant), asserted to be
    positive integers.  Errors on dependent weights or a non-integral or
    non-positive solution.

    Over Q: rank tests decide dependence and solvability, and Cramer's rule
    on s rows where the s weights are independent gives the solution.
    """
    target = discriminant_weight(q, d)
    s = len(weights)
    rows = [[w[x] for w in weights] for x in range(q.node_count)]
    if rank(rows, None) < s:
        raise ValueError("weights are linearly dependent")
    if rank([row + [t] for row, t in zip(rows, target)], None) > s:
        raise ValueError("weight equation has no rational solution")
    square, rhs = [], []
    for row, t in zip(rows, target):
        if len(square) < s and rank(square + [row], None) > len(square):
            square.append(row)
            rhs.append(t)
    den = det(square, None)
    out = []
    for i in range(s):
        v = det([row[:i] + [t] + row[i + 1:] for row, t in zip(square, rhs)], None) / den
        if v.denominator != 1:
            raise ValueError(f"non-integral multiplicity {v}")
        iv = int(v)
        if iv < 1:
            raise ValueError(f"non-positive multiplicity {iv}")
        out.append(iv)
    return out


def verify_factorization(
    q: Quiver,
    d,
    handles,
    mults,
    p: int | None,
    trials: int,
    seed: int,
):
    """Ratio-constancy check of the discriminant determinant against the
    weighted product of the handle values, over F_p or Q (``p`` None), at
    random points where every factor is nonzero.  Returns (ok, unit_ratio,
    deviation_count), the last being the number of sampled points whose
    ratio differed from the first."""
    d = tuple(int(x) for x in d)
    lfm = action_matrix(q, d)
    rng = Rng(seed)
    ratios = []
    attempts = 0
    budget = 10 * trials + 20
    while len(ratios) < trials and attempts < budget:
        v = random_representation(q, d, p, rng.split(attempts).seed)
        attempts += 1
        vals = [h.evaluate(v) for h in handles]
        if any(val == 0 for val in vals):
            continue
        delta = det(lfm.evaluate(lfm.coords.flatten(v), p), p)
        prod = 1
        for val, a in zip(vals, mults):
            prod = reduce(prod * power(val, a, p), p)
        ratios.append(reduce(delta * power(prod, -1, p), p))
    if len(ratios) < trials:
        raise CertifyError("factorization", "all sampled points degenerate")
    deviations = sum(1 for r in ratios if r != ratios[0])
    ok = ratios[0] != 0 and deviations == 0
    return ok, ratios[0], deviations


def squarefree_probe(
    q: Quiver,
    d,
    p: int | None = DEFAULT_PRIME,
    trials: int = 5,
    seed: int = DEFAULT_SEED,
):
    """Squarefreeness of the discriminant determinant over F_p, or over Q
    when ``p`` is None, from its restrictions to random affine lines.
    Returns (squarefree, votes).

    Each trial takes the first of 8 lines whose restriction f has full
    degree and votes gcd(f, f') = 1.  On such a line a repeated factor g^2
    of the discriminant restricts to g|_L^2 with deg g|_L = deg g, so one
    squarefree vote proves the discriminant reduced: the probe stops at it,
    and only a not-squarefree outcome runs all ``trials``.  The verdict is
    any(votes).
    """
    d = tuple(int(x) for x in d)
    lfm = action_matrix(q, d)
    n = lfm.size
    _require_prime_above_twice(p, n, "squarefree_probe")
    if n == 0:
        return True, [True] * trials
    rng = Rng(seed)
    votes = []
    for trial in range(trials):
        for attempt in range(8):
            poly = _line_restriction_poly(lfm, p, rng.split(trial, attempt))
            if poly is not None:
                break
        else:
            raise CertifyError(
                "squarefree",
                "the discriminant vanishes at the leading member A(vec1) of "
                "every sampled line",
            )
        g = poly_gcd(poly, poly_deriv(poly, p), p)
        votes.append(poly_degree(g) == 0)
        if votes[-1]:
            break
    return any(votes), votes


# ---------------------------------------------------------------------------
# Advisory-mode candidate roots


def _advisory_candidate_roots(q: Quiver, d) -> list[tuple[int, ...]]:
    """Orthogonal real-root candidates on a sincere acyclic support whose
    Tits form is not positive definite on {e : <e, d> = 0}, from the box
    0 <= e_x <= d_x + max(d).  A definite lattice never gets here: there
    ``lattice_roots`` lists every candidate.

    The box is heuristic; completeness is validated downstream by the
    component-count check.  Soundness does not depend on it: candidates only
    enter the report after a nonzero witness value is observed.  A box of
    more than ``MAX_BOX_SCAN_POINTS`` points is refused before scanning, and
    a scan yielding more than ``MAX_ADVISORY_CANDIDATES`` candidates after it.
    """
    n = q.node_count
    dmax = max(d)
    bounds = [d[x] + dmax for x in range(n)]
    e_mat = euler_matrix(q)
    coeff = [sum(e_mat[x][y] * d[y] for y in range(n)) for x in range(n)]
    pivot = max(range(n), key=lambda x: abs(coeff[x]))
    if coeff[pivot] == 0:
        raise CertifyError("orthogonal-roots", "degenerate Euler pairing with d")
    others = [x for x in range(n) if x != pivot]
    points = math.prod(bounds[x] + 1 for x in others)
    if points > MAX_BOX_SCAN_POINTS:
        raise CertifyError(
            "orthogonal-roots",
            f"candidate box scan would visit {points} points (limit "
            f"{MAX_BOX_SCAN_POINTS}); it is needed because the Tits form is "
            "not positive definite on the lattice orthogonal to d",
        )
    out = []
    vec = [0] * n

    def scan(k: int, partial: int):
        if k == len(others):
            num = -partial
            if num % coeff[pivot]:
                return
            val = num // coeff[pivot]
            if 0 <= val <= bounds[pivot]:
                vec[pivot] = val
                e = tuple(vec)
                if any(e) and tits_form(q, e) == 1:
                    out.append(e)
                vec[pivot] = 0
            return
        x = others[k]
        for v in range(bounds[x] + 1):
            vec[x] = v
            scan(k + 1, partial + coeff[x] * v)
        vec[x] = 0

    scan(0, 0)
    if len(out) > MAX_ADVISORY_CANDIDATES:
        raise CertifyError(
            "orthogonal-roots",
            f"candidate box scan found {len(out)} candidates (limit "
            f"{MAX_ADVISORY_CANDIDATES}); it is needed because the Tits form is "
            "not positive definite on the lattice orthogonal to d",
        )
    return sorted(out)


def _nonvanishing_filter(q: Quiver, d, candidates, prime: int, seed: int):
    """Keep candidates whose witness determinant is nonzero at some random
    point (a certain, one-sided check); two attempts per candidate."""
    rng = Rng(seed)
    kept = []
    for i, e in enumerate(candidates):
        for attempt in range(2):
            w = random_representation(q, e, prime, rng.split(i, attempt, 0).seed)
            v = random_representation(q, d, prime, rng.split(i, attempt, 1).seed)
            if det(defect_matrix(w, v), prime):
                kept.append(e)
                break
    return kept


# ---------------------------------------------------------------------------
# The pipeline


def certify(q: Quiver, d, options: CertifyOptions | None = None) -> LfdReport:
    """Run the full pipeline and return the certified component table."""
    opts = options or CertifyOptions()
    d = tuple(int(x) for x in d)
    if len(d) != q.node_count or any(x < 0 for x in d):
        raise CertifyError("input", "invalid dimension vector")
    if not any(d):
        raise CertifyError("input", "zero dimension vector")
    prime, seed = opts.prime, opts.seed
    p = None if opts.exact else prime  # the field of every evaluation
    stats = VerificationStats(
        prime=prime,
        seed=seed,
        ratio_trials=opts.ratio_trials,
        squarefree_lines=opts.squarefree_lines,
    )
    notes: list[str] = []

    def report(verdict, reason=None, components=(), dim_rep=None, disc_w=None):
        stats.notes = tuple(notes)
        return LfdReport(
            quiver_name=q.name,
            nodes=q.nodes,
            dims=d,
            dim_rep=dim_rep,
            disc_weight=disc_w if disc_w is not None else (0,) * q.node_count,
            components=list(components),
            verdict=verdict,
            reason=reason,
            stats=stats,
        )

    # stage: support restriction
    q0, d0 = support_subquiver(q, d)

    # stage: real-root check
    qd = tits_form(q0, d0)
    if qd != 1:
        return report(VERDICT_INCONCLUSIVE, f"q(d) = {qd}, not a real root")
    cls = classify_underlying_graph(q0)
    if isinstance(cls, list):
        return report(
            VERDICT_INCONCLUSIVE, "support is disconnected, no indecomposable exists"
        )
    if not is_acyclic(q0):
        raise CertifyError("classify", "support contains an oriented cycle")
    # the degree of the discriminant: det A is homogeneous of degree dim Rep,
    # and each line the squarefree probe accepts proves it nonzero
    dim_rep = sum(d0[t] * d0[h] for t, h in zip(q0.tails, q0.heads))
    # the squarefree probe needs each prime it runs under above 2 * dim Rep;
    # refuse a smaller one before any stage samples
    if p is not None:
        _require_prime_above_twice(prime, dim_rep, "option prime")
        _require_prime_above_twice(
            opts.cross_check_prime, dim_rep, "option cross_check_prime"
        )
    if cls.kind == "dynkin":
        mode = "dynkin"
        stats.mode = mode
    else:
        mode = "advisory"
        stats.mode = mode
        if opts.exact:
            raise CertifyError("exact", "exact mode requires a Dynkin support")
        cert = brick_probe(q0, d0, prime, derive_seed(seed, 101), trials=8)
        stats.brick_endomorphism_dim = cert.endomorphism_dim
        stats.brick_ext_dim = cert.ext_dim
        if cert.verdict != "brick":
            return report(
                VERDICT_INCONCLUSIVE,
                f"generic endomorphism dimension >= {cert.endomorphism_dim}; "
                "not a Schur root, the discriminant is the whole space",
                dim_rep=dim_rep,
            )
    if opts.exact and dim_rep > 24:
        raise CertifyError("exact", "oversize exact-mode request (dim Rep > 24)")

    disc_w0 = discriminant_weight(q0, d0)
    disc_w = embed_vector(q, q0, disc_w0)

    # stage: orthogonal roots (complete unless q is indefinite on d-perp,
    # which never happens on a Dynkin support)
    candidates = lattice_roots(q0, d0)
    if mode == "advisory":
        scanned = candidates
        if scanned is None:
            scanned = _advisory_candidate_roots(q0, d0)
        candidates = _nonvanishing_filter(q0, d0, scanned, prime, derive_seed(seed, 2))
        notes.append(
            f"advisory candidate roots scanned: {len(scanned)}, "
            f"with nonzero witness values: {len(candidates)}"
        )
    if not candidates:
        if q0.node_count == 1:
            # zero-dimensional representation space: empty discriminant
            return report(VERDICT_LFD, None, [], dim_rep, disc_w)
        return report(
            VERDICT_INCONCLUSIVE, "no orthogonal roots found", [], dim_rep, disc_w
        )

    # stage: semigroup basis + witnesses (advisory mode may drop candidates
    # whose semi-invariant vanishes identically)
    cand = set(candidates)
    picked = []
    while True:
        basis = semigroup_basis(sorted(cand))
        picked = []
        failed = None
        for e in basis:
            try:
                w, deg = sample_generic_witness(
                    q0, e, d0, p, derive_seed(seed, 10, *e)
                )
            except DegenerateWitnessError:
                failed = e
                break
            picked.append((e, w, deg))
        if failed is None:
            break
        if mode == "dynkin":
            raise CertifyError(
                "witnesses", f"no generic witness for orthogonal root {failed}"
            )
        cand.discard(failed)
        notes.append(f"dropped candidate root {failed}: semi-invariant vanishes")
        if not cand:
            return report(
                VERDICT_INCONCLUSIVE, "all candidate roots degenerate", [], dim_rep, disc_w
            )

    expected = q0.node_count - 1
    if len(picked) != expected:
        msg = f"component count {len(picked)} != support size - 1 = {expected}"
        if mode == "dynkin":
            raise CertifyError("semigroup-basis", msg)
        return report(VERDICT_INCONCLUSIVE, msg, [], dim_rep, disc_w)

    # stage: degrees and weights
    handles = []
    weights0 = []
    degrees = []
    for i, (e, w, deg) in enumerate(picked):
        h = SchofieldHandle(e, w, d0)
        h.degree = deg
        w0 = weight_of_schofield(q0, e)
        if not verify_weight(h, w0, p, derive_seed(seed, 20, i), trials=1):
            raise CertifyError("weights", f"weight check failed for root {e}")
        handles.append(h)
        weights0.append(w0)
        degrees.append(deg)

    # stage: multiplicity vector
    try:
        mults = multiplicity_vector(q0, d0, weights0)
    except ValueError as exc:
        msg = f"multiplicity solve failed: {exc}"
        if mode == "dynkin":
            raise CertifyError("multiplicities", msg)
        return report(VERDICT_INCONCLUSIVE, msg, [], dim_rep, disc_w)

    total = sum(a * deg for a, deg in zip(mults, degrees))
    if total != dim_rep:
        msg = f"weighted degree sum {total} != dim Rep = {dim_rep}"
        if mode == "dynkin":
            raise CertifyError("degrees", msg)
        return report(VERDICT_INCONCLUSIVE, msg, [], dim_rep, disc_w)

    # stage: factorization verification
    fact_ok, unit, deviations = verify_factorization(
        q0, d0, handles, mults, p, opts.ratio_trials, derive_seed(seed, 30)
    )
    stats.unit_ratio = str(unit) if p is None else unit
    stats.ratio_deviations = deviations
    bound_num = dim_rep + total
    stats.ratio_point_bound_log2 = (
        math.log2(bound_num) - math.log2(prime) if bound_num > 0 else None
    )

    # stage: squarefree probe
    sqf, votes = squarefree_probe(q0, d0, p, opts.squarefree_lines, derive_seed(seed, 40))
    stats.squarefree_votes = tuple(votes)

    # optional multi-prime consistency pass
    if opts.cross_check_prime is not None:
        p2 = opts.cross_check_prime
        handles2 = []
        for e, _, deg in picked:
            w2, deg2 = sample_generic_witness(q0, e, d0, p2, derive_seed(seed, 50, *e))
            h2 = SchofieldHandle(e, w2, d0)
            h2.degree = deg2
            handles2.append((h2, deg, deg2))
        fact_ok2, _, _ = verify_factorization(
            q0, d0, [h for h, _, _ in handles2], mults, p2, opts.ratio_trials,
            derive_seed(seed, 51),
        )
        sqf2, _ = squarefree_probe(
            q0, d0, p2, opts.squarefree_lines, derive_seed(seed, 52)
        )
        degree_agree = all(a == b for _, a, b in handles2)
        if not (fact_ok2 == fact_ok and sqf2 == sqf and degree_agree):
            return report(
                VERDICT_INCONCLUSIVE,
                f"cross-check prime {p2} disagrees with {prime}",
                [],
                dim_rep,
                disc_w,
            )
        notes.append(f"cross-check prime {p2}: agreed")

    # assemble components in canonical order: by degree, then root
    order = sorted(range(len(handles)), key=lambda i: (degrees[i], picked[i][0]))
    components = []
    for pos, i in enumerate(order):
        e, _, deg = picked[i]
        components.append(
            Component(
                handle_id=f"P{pos + 1}",
                root=embed_vector(q, q0, e),
                weight=embed_vector(q, q0, weights0[i]),
                degree=deg,
                multiplicity=mults[i],
                handle_kind="schofield",
                type_root=root_support_type(q0, e).label,
                type_weight=weight_support_type(q0, weights0[i]).label,
            )
        )

    all_ones = all(a == 1 for a in mults)
    if not fact_ok:
        return report(
            VERDICT_INCONCLUSIVE,
            "factorization ratio not constant over sampled points",
            components,
            dim_rep,
            disc_w,
        )
    if all_ones != sqf:
        return report(
            VERDICT_INCONCLUSIVE,
            f"reducedness signals disagree: multiplicities all 1 = {all_ones}, "
            f"squarefree probe = {sqf}",
            components,
            dim_rep,
            disc_w,
        )
    point_bound = stats.ratio_point_bound_log2
    if p is not None and point_bound is not None and point_bound >= MAX_POINT_BOUND_LOG2:
        return report(
            VERDICT_INCONCLUSIVE,
            f"per-point false-accept bound 2^{point_bound:.1f} is not below "
            f"2^{MAX_POINT_BOUND_LOG2}; use a larger prime",
            components,
            dim_rep,
            disc_w,
        )
    if all_ones:
        return report(VERDICT_LFD, None, components, dim_rep, disc_w)
    mult_desc = ",".join(str(a) for a in mults)
    return report(
        VERDICT_NOT_REDUCED, f"multiplicities ({mult_desc})", components, dim_rep, disc_w
    )
