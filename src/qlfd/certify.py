"""End-to-end certification: decide whether the discriminant of non-rigid
representations is a linear free divisor and emit the component table.

Pipeline: support restriction, real-root check, component roots, witnesses,
degrees and weights, multiplicity vector, squarefree probe, factorization
identity on the probe's line.  The component roots are the simples of the
perpendicular category of a general representation, read off by
``perpendicular_simples``: the list is complete on every acyclic support
where d is a real Schur root.  On a non-Dynkin support a brick probe must
certify that first, and the pipeline runs in advisory mode: its two
independent reducedness signals (integral multiplicities; random-line
squarefreeness) must agree, or the verdict is inconclusive.
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
    poly_degree,
    poly_deriv,
    poly_gcd,
    poly_mul,
    power,
    rank,
    reduce,
)
from .quiver import (
    Quiver,
    classify_underlying_graph,
    embed_vector,
    is_acyclic,
    support_subquiver,
    tits_form,
)
from .repmatrix import RepCoordinates, action_matrix
from .roots import brick_probe, perpendicular_simples
from .semiinv import (
    DegenerateWitnessError,
    SchofieldHandle,
    discriminant_weight,
    root_support_type,
    sample_generic_witness,
    verify_weight,
    weight_support_type,
)

DEFAULT_SEED = 1729

VERDICT_LFD = "linear-free-divisor"
VERDICT_NOT_REDUCED = "not-reduced"
VERDICT_INCONCLUSIVE = "inconclusive"

# A modular verdict is definitive only when a false factorization identity
# survives the probe line with probability below 2**-40.
MAX_POINT_BOUND_LOG2 = -40

# Over Q the line coordinates are drawn from [-R, R], a set of 2R + 1 values.
EXACT_LINE_RANGE = 99


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
    # at most this many squarefree trials: the first squarefree line proves
    # the discriminant reduced, so only a not-reduced verdict uses them all
    squarefree_lines: int = 5
    exact: bool = False  # exact rational evaluations; small Dynkin fixtures only
    # optional paranoia: repeat the factorization and squarefree checks under
    # a second prime and require agreement
    cross_check_prime: int | None = None

    def __post_init__(self):
        if self.squarefree_lines < 1:
            raise ValueError(
                f"squarefree_lines must be at least 1, got {self.squarefree_lines}"
            )
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
    squarefree_lines: int
    mode: str = ""
    unit_ratio: int | str | None = None
    ratio_point_bound_log2: float | None = None
    squarefree_votes: tuple = ()
    brick_endomorphism_dim: int | None = None
    brick_ext_dim: int | None = None
    notes: tuple = ()

    def to_dict(self):
        return {
            "prime": self.prime,
            "seed": self.seed,
            "squarefree_lines": self.squarefree_lines,
            "mode": self.mode,
            "unit_ratio": self.unit_ratio,
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
    """Uniform over F_p, or in [-r, r] over Q, r = EXACT_LINE_RANGE."""
    r = EXACT_LINE_RANGE
    if p is None:
        return [rng.randint(-r, r) for _ in range(lfm.coords.total)]
    return [rng.below(p) for _ in range(lfm.coords.total)]


def _line_restriction_poly(lfm, p: int | None, vec0, vec1):
    """det of the action matrix along the affine line vec0 + t*vec1, as a
    univariate polynomial over F_p or Q, when it has full degree
    ``lfm.size``; None otherwise.

    Every cell of the action matrix A is a signed coordinate, so det A is
    homogeneous of degree ``size`` and its coefficient of t^size along the
    line is det A(vec1): a line counts exactly when A(vec1) is invertible,
    which is when the pencil kernel ``det_pencil_poly`` returns a
    polynomial, over either field.
    """
    return det_pencil_poly(lfm.evaluate(vec0, p), lfm.evaluate(vec1, p), p)


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


def verify_factorization(q: Quiver, d, handles, mults, line, p: int | None):
    """The factorization identity Delta|_L = c * prod h_i|_L^{a_i}, over F_p
    or Q (``p`` None), on the line (vec0, vec1, Delta|_L) that
    ``squarefree_probe`` returns; each handle is restricted to the line by
    one pencil (``SchofieldHandle.line``).  Returns (ok, c), c the ratio of
    the leading coefficients, or (False, None) when some h_i vanishes at
    vec1, is not of its declared degree, or the product's degree is not
    Delta's.  ``handles`` (``SchofieldHandle``s) and ``mults`` must have the
    same length.

    If Delta and P = prod h_i^{a_i} are not proportional, the identity still
    forces Delta(vec0) P(vec1) = P(vec0) Delta(vec1), a nonzero polynomial of
    degree dim Rep in vec0 since Delta(vec1) != 0 on an accepted line.  So a
    false accept has probability at most dim Rep / |S|, S being the set each
    coordinate of vec0 is drawn from.
    """
    vec0, vec1, delta = line
    coords = RepCoordinates(q, d)
    v0, v1 = coords.unflatten(vec0, p), coords.unflatten(vec1, p)
    pairs = list(zip(handles, mults, strict=True))  # unequal lengths raise here
    prod = [1]
    for h, a in pairs:
        hl = h.line(v0, v1)
        if hl is None:
            return False, None
        for _ in range(a):
            prod = poly_mul(prod, hl, p)
    if poly_degree(prod) != poly_degree(delta):
        return False, None
    c = reduce(delta[-1] * power(prod[-1], -1, p), p)
    return all(reduce(x - c * y, p) == 0 for x, y in zip(delta, prod)), c


def squarefree_probe(
    q: Quiver,
    d,
    p: int | None = DEFAULT_PRIME,
    trials: int = 5,
    seed: int = DEFAULT_SEED,
):
    """Squarefreeness of the discriminant determinant over F_p, or over Q
    when ``p`` is None, from its restrictions to random affine lines.
    Returns (squarefree, votes, line), where line = (vec0, vec1, f) is the
    first accepted line vec0 + t*vec1 and f the restriction on it.

    Each trial takes the first of 8 lines whose restriction f has full
    degree and votes gcd(f, f') = 1.  On such a line a repeated factor g^2
    of the discriminant restricts to g|_L^2 with deg g|_L = deg g, so one
    squarefree vote proves the discriminant reduced: the probe stops at it,
    and only a not-squarefree outcome runs all ``trials``.  The verdict is
    any(votes).
    """
    d = tuple(int(x) for x in d)
    lfm = action_matrix(q, d)
    _require_prime_above_twice(p, lfm.size, "squarefree_probe")
    rng = Rng(seed)
    votes = []
    line = None
    for trial in range(trials):
        for attempt in range(8):
            stream = rng.split(trial, attempt)
            vec0 = _random_coordinate_vector(lfm, p, stream)
            vec1 = _random_coordinate_vector(lfm, p, stream)
            poly = _line_restriction_poly(lfm, p, vec0, vec1)
            if poly is not None:
                break
        else:
            raise CertifyError(
                "squarefree",
                "the discriminant vanishes at the leading member A(vec1) of "
                "every sampled line",
            )
        line = line or (vec0, vec1, poly)
        g = poly_gcd(poly, poly_deriv(poly, p), p)
        votes.append(poly_degree(g) == 0)
        if votes[-1]:
            break
    return any(votes), votes, line


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
        prime=prime, seed=seed, squarefree_lines=opts.squarefree_lines
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
        # and the brick probe of a non-Dynkin support needs one above 2**40
        if cls.kind != "dynkin" and prime <= 2**40:
            raise ValueError(
                f"option prime needs a prime above 2**40 on a non-Dynkin "
                f"support: {prime} <= 2**40"
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

    # stage: component roots, the simples of the perpendicular category
    try:
        simples = perpendicular_simples(q0, d0)
    except ValueError as exc:
        raise CertifyError("orthogonal-roots", str(exc)) from None
    if not simples:
        # a single node: zero-dimensional representation space, empty discriminant
        return report(VERDICT_LFD, None, [], dim_rep, disc_w)

    # stage: one witness per component
    picked = []
    for e in simples:
        try:
            w, deg = sample_generic_witness(q0, e, d0, p, derive_seed(seed, 10, *e))
        except DegenerateWitnessError:
            raise CertifyError(
                "witnesses", f"no generic witness for orthogonal root {e}"
            ) from None
        picked.append((e, w, deg))

    # stage: weights (each degree came with its witness)
    handles = []
    for i, (e, w, deg) in enumerate(picked):
        h = SchofieldHandle(e, w, d0)
        h.degree = deg
        if not verify_weight(h, h.weight, p, derive_seed(seed, 20, i)):
            raise CertifyError("weights", f"weight check failed for root {e}")
        handles.append(h)
    weights0 = [h.weight for h in handles]
    degrees = [h.degree for h in handles]

    # stage: multiplicity vector
    try:
        mults = multiplicity_vector(q0, d0, weights0)
    except ValueError as exc:
        msg = f"multiplicity solve failed: {exc}"
        if mode == "dynkin":
            raise CertifyError("multiplicities", msg)
        return report(VERDICT_INCONCLUSIVE, msg, [], dim_rep, disc_w)

    # implied by the weights unless degree_of measured the degrees
    total = sum(a * deg for a, deg in zip(mults, degrees))
    if total != dim_rep:
        msg = f"weighted degree sum {total} != dim Rep = {dim_rep}"
        if mode == "dynkin":
            raise CertifyError("degrees", msg)
        return report(VERDICT_INCONCLUSIVE, msg, [], dim_rep, disc_w)

    # stage: squarefree probe
    sqf, votes, line = squarefree_probe(
        q0, d0, p, opts.squarefree_lines, derive_seed(seed, 40)
    )
    stats.squarefree_votes = tuple(votes)

    # stage: factorization identity on the probe's first line, reported with
    # the looser bound 2 dim Rep / |S| (see verify_factorization)
    fact_ok, unit = verify_factorization(q0, d0, handles, mults, line, p)
    stats.unit_ratio = str(unit) if p is None and unit is not None else unit
    sample_size = prime if p is not None else 2 * EXACT_LINE_RANGE + 1
    stats.ratio_point_bound_log2 = math.log2(2 * dim_rep) - math.log2(sample_size)

    # optional multi-prime consistency pass
    if opts.cross_check_prime is not None:
        p2 = opts.cross_check_prime
        handles2 = []
        for e, _, deg in picked:
            w2, _ = sample_generic_witness(q0, e, d0, p2, derive_seed(seed, 50, *e))
            h2 = SchofieldHandle(e, w2, d0)
            h2.degree = deg
            handles2.append(h2)
        sqf2, _, line2 = squarefree_probe(
            q0, d0, p2, opts.squarefree_lines, derive_seed(seed, 52)
        )
        fact_ok2, _ = verify_factorization(q0, d0, handles2, mults, line2, p2)
        if not (fact_ok2 == fact_ok and sqf2 == sqf):
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
            "factorization identity fails on the probe line",
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
            f"false-accept bound 2^{point_bound:.1f} is not below "
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
