"""End-to-end certification: decide whether the discriminant of non-rigid
representations is a linear free divisor and emit the component table.

Pipeline: support restriction, real-root check, one random line, then a
deterministic core and the randomized line certificate on that line.  The
line's leading member has Delta(vec1) = det A(vec1) != 0, which proves d a
Schur root on every support (see ``_probe_line``); on a non-Dynkin support
the pipeline runs in advisory mode.  The core draws nothing: the component
roots are the simples of the perpendicular category of a general
representation, read off by ``perpendicular_simples`` (the list is complete
on every acyclic support where d is a real Schur root), their weights are
-eE, their degrees sum_x w_x l(x) d_x for a level function l, and their
multiplicities solve the weight equation.

The line certificate (``line_certificate``) takes on the line one witness
per component, whose pencil restricts the handle to the line: one
determinant per handle and nothing else.  It never restricts the
discriminant Delta itself to the line: it checks Delta = c * P, with
P = prod h_i^{a_i} over the handles, at the line's two ends, one
determinant of Delta per end.  Once the identity holds, Delta|_L = c * P|_L,
so the reducedness signal is the squarefreeness of P|_L.  It must agree
with the other signal, all multiplicities 1, or the verdict is
inconclusive.

No weight is checked at run time: the weight -eE of each handle holds
exactly (see ``semiinv``), and the verdict rests on the identity checked on
the handles themselves, so a wrong weight, through a wrong multiplicity or
degree, would fail the identity and could not cause a false accept.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import count

from .arith import (
    DEFAULT_PRIME,
    Rng,
    _crt_prime,
    check_prime,
    derive_seed,
    poly_degree,
    poly_deriv,
    poly_gcd,
    poly_mul,
    power,
    rank_mod,
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
from .repmatrix import action_matrix
from .roots import perpendicular_simples
from .semiinv import (
    DegenerateWitnessError,
    discriminant_weight,
    root_support_type,
    sample_generic_witness,
    weight_degree,
    weight_of_schofield,
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

# At most this many lines are drawn while every multiplicity is 1 and the
# handles' product is not squarefree on the line; then the verdict is
# inconclusive.
CERTIFICATE_LINES = 3


class CertifyError(RuntimeError):
    """Hard failure of a pipeline stage (inputs the pipeline cannot accept,
    or an internal consistency check that should never fail)."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64): the random streams use the seed
    modulo 2**64, so such a seed would be reported as given but behave as
    another seed."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


class CertifyOptions:
    def __init__(self, prime: int = DEFAULT_PRIME, seed: int = DEFAULT_SEED,
                 exact: bool = False):
        check_seed(seed)
        check_prime(prime)
        if prime < 5:
            # refused up front on every input: no check can use so small a
            # field, and a definitive verdict needs a prime above 2**40
            raise ValueError(f"prime must be at least 5, got {prime}")
        self.prime = prime
        self.seed = seed
        self.exact = exact  # exact rational evaluations; small Dynkin fixtures only


class Component:
    def __init__(self, handle_id: str, root: tuple, weight: tuple, degree: int,
                 multiplicity: int, handle_kind: str, type_root: str, type_weight: str):
        self.handle_id = handle_id
        self.root = root
        self.weight = weight
        self.degree = degree
        self.multiplicity = multiplicity
        self.handle_kind = handle_kind
        self.type_root = type_root
        self.type_weight = type_weight

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


class VerificationStats:
    def __init__(self, prime: int, seed: int, mode: str = "",
                 unit_ratio: int | str | None = None,
                 ratio_point_bound_log2: float | None = None, lines_used: int = 0,
                 brick_endomorphism_dim: int | None = None,
                 brick_ext_dim: int | None = None, notes: tuple = ()):
        self.prime = prime
        self.seed = seed
        self.mode = mode
        self.unit_ratio = unit_ratio
        self.ratio_point_bound_log2 = ratio_point_bound_log2
        self.lines_used = lines_used
        self.brick_endomorphism_dim = brick_endomorphism_dim
        self.brick_ext_dim = brick_ext_dim
        self.notes = notes

    def to_dict(self):
        return {
            "prime": self.prime,
            "seed": self.seed,
            "mode": self.mode,
            "unit_ratio": self.unit_ratio,
            "ratio_point_bound_log2": self.ratio_point_bound_log2,
            "lines_used": self.lines_used,
            "brick_endomorphism_dim": self.brick_endomorphism_dim,
            "brick_ext_dim": self.brick_ext_dim,
            "notes": list(self.notes),
        }


class LfdReport:
    def __init__(self, quiver_name: str, nodes: tuple, dims: tuple, dim_rep: int | None,
                 disc_weight: tuple, components: list[Component], verdict: str,
                 reason: str | None, stats: VerificationStats):
        self.quiver_name = quiver_name
        self.nodes = nodes
        self.dims = dims
        self.dim_rep = dim_rep
        self.disc_weight = disc_weight
        self.components = components
        self.verdict = verdict
        self.reason = reason
        self.stats = stats

    @property
    def definitive(self) -> bool:
        return self.verdict in (VERDICT_LFD, VERDICT_NOT_REDUCED)

    def to_dict(self):
        return {
            "schema_version": 2,
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


def _probe_line(lfm, p: int | None, seed: int, trial: int = 0):
    """The first of 8 lines vec0 + t*vec1, drawn on
    ``Rng(derive_seed(seed, 40)).split(trial, attempt)``, where
    Delta(vec1) = det A(vec1) is nonzero, as ((vec0, vec1, Delta(vec1)), N)
    with N = dim Rep = ``lfm.size``; when all 8 leading members are
    singular, (None, r), r the largest rank of A(vec1) seen over F_p (None
    over Q).  Delta(vec1) is ``lfm.det``, over F_p on A(vec1) less its
    peeled columns (``repmatrix.SinkReduction``); there a singular leading
    member is evaluated in full only for its rank.

    A(V) is the defect matrix M(V, V) less one column, and every entry of
    M(V, V) is 0 or a signed coordinate of V, so Delta is homogeneous of
    degree N and Delta(vec1) is the leading coefficient of Delta|_L: each
    accepted line proves deg Delta = dim Rep.

    It also proves d a Schur root.  M(V, V) has kernel End V and, with
    q(d) = 1, N + 1 columns, so rank M(V, V) = N + 1 - dim End V; the
    identity lies in the kernel, so the dropped column is in the span of
    the others and rank A(V) = rank M(V, V).  So Delta(vec1) != 0 makes
    V1 a brick, and, Delta having integer coefficients, a nonzero value
    over F_p proves Delta nonzero over Q as well.  When every sample is
    singular, each has dim End >= N + 1 - r.
    """
    rng = Rng(derive_seed(seed, 40))
    rank = None if p is None else 0
    for attempt in range(8):
        stream = rng.split(trial, attempt)
        vec0 = _random_coordinate_vector(lfm, p, stream)
        vec1 = _random_coordinate_vector(lfm, p, stream)
        delta1 = lfm.det(vec1, p)
        if delta1:
            return (vec0, vec1, delta1), lfm.size
        if p is not None:
            rank = max(rank, rank_mod(lfm.evaluate(vec1, p), p))
    return None, rank


def _no_line() -> CertifyError:
    """The failure of a line draw where d is known to be a Schur root."""
    return CertifyError(
        "line",
        "the discriminant vanishes at the leading member A(vec1) of every "
        "sampled line",
    )


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
    is None: sum over arrows of d(tail) * d(head), proved by the leading
    member of the first line ``certify`` draws at ``seed``.

    det A is homogeneous of degree ``size`` (see ``_probe_line``), so one
    nonzero det A(v) at a random point proves that the degree equals the
    formula value.
    """
    d = tuple(int(x) for x in d)
    formula = sum(d[t] * d[h] for t, h in zip(q.tails, q.heads))
    lfm = action_matrix(q, d)
    if lfm.size != formula:
        raise CertifyError("discriminant-degree", "action matrix size mismatch")
    if formula == 0:
        return 0
    _require_prime_above_twice(p, formula, "discriminant_degree")
    if _probe_line(lfm, p, seed)[0] is None:
        raise CertifyError(
            "discriminant-degree",
            "determinant vanishes at every sampled point; "
            "the dimension vector is likely not a Schur root",
        )
    return formula


def multiplicity_vector(q: Quiver, d, weights) -> list[int]:
    """The unique solution a of sum a_i w_i = w(discriminant), asserted to be
    positive integers.  Errors on dependent weights or a non-integral or
    non-positive solution.

    One fraction-free Gauss-Jordan pass over the integer rows
    [w_1(x) ... w_s(x) | w(discriminant)(x)], one per node x, each row
    divided by its content after every update: a column without a pivot
    means dependent weights, a row left as [0 ... 0 | c != 0] an
    inconsistent equation, and the pivot row of column i gives a_i as the
    ratio of its last entry to its pivot.
    """
    target = discriminant_weight(q, d)
    s = len(weights)
    rows = [[w[x] for w in weights] + [t] for x, t in enumerate(target)]
    pivots = []
    for c in range(s):
        r = next((r for r in range(len(rows)) if rows[r][c]), None)
        if r is None:
            raise ValueError("weights are linearly dependent")
        prow = rows.pop(r)
        a = prow[c]
        for row in (*pivots, *rows):
            f = row[c]
            if f:
                row[:] = [a * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row) or 1
                row[:] = [x // g for x in row]
        pivots.append(prow)
    if any(row[s] for row in rows):
        raise ValueError("weight equation has no rational solution")
    out = []
    for i, row in enumerate(pivots):
        v = Fraction(row[s], row[i])
        if v.denominator != 1:
            raise ValueError(f"non-integral multiplicity {v}")
        iv = int(v)
        if iv < 1:
            raise ValueError(f"non-positive multiplicity {iv}")
        out.append(iv)
    return out


def _ends_agree(delta0, delta1, prod, p: int | None):
    """The identity Delta = c * P at the two ends of a line:
    Delta(vec0) P(vec1) = P(vec0) Delta(vec1), where P(vec0) and P(vec1)
    are the constant and the leading coefficient of P|_L = ``prod``.
    Returns (ok, c) with c = Delta(vec1) / P(vec1)."""
    c = reduce(delta1 * power(prod[-1], -1, p), p)
    return reduce(delta0 * prod[-1] - prod[0] * delta1, p) == 0, c


def verify_factorization(restrictions, mults, line, p: int | None):
    """The factorization identity Delta = c * prod h_i^{a_i}, over F_p or Q
    (``p`` None), at the two ends of the line (vec0, vec1, Delta(vec0),
    Delta(vec1)) that ``line_certificate`` uses, from the restrictions h_i|_L
    of the handles to the line (``SchofieldHandle.restrict``); P|_L is
    their product.  Returns (ok, c, P|_L), with c the ratio
    Delta(vec1) / P(vec1); (False, None, None) when some restriction is
    None (h_i vanishes at vec1 or is not of its declared degree) or deg P
    is not dim Rep.  ``restrictions`` and ``mults`` must have the same
    length.

    P is homogeneous of degree N = dim Rep, so the constant and leading
    coefficients of P|_L are P(vec0) and P(vec1), and ``_ends_agree``
    checks Delta(vec0) P(vec1) = P(vec0) Delta(vec1).  If Delta and P are
    not proportional, that is a nonzero polynomial of degree N in vec0,
    since Delta(vec1) != 0 on an accepted line.  So a false accept has
    probability at most N / |S|, S being the set each coordinate of vec0 is
    drawn from.
    """
    vec0, _, delta0, delta1 = line
    pairs = list(zip(restrictions, mults, strict=True))  # unequal lengths raise here
    prod = [1]
    for hl, a in pairs:
        if hl is None:
            return False, None, None
        for _ in range(a):
            prod = poly_mul(prod, hl, p)
    if poly_degree(prod) != len(vec0):  # one coordinate per dimension of Rep
        return False, None, None
    return (*_ends_agree(delta0, delta1, prod, p), prod)


def _squarefree(f, p: int | None) -> bool:
    """gcd(f, f') = 1 over F_p, or, over Q (``p`` None) for integer
    coefficients, modulo the first prime of ``_crt_prime`` that does not
    divide the leading coefficient.

    Over Q the test is one-sided.  A unit gcd at that prime means that
    disc(f) is nonzero modulo the prime, hence nonzero, so f is squarefree.
    A common factor modulo the prime may come from the prime alone, when it
    divides a nonzero disc(f), so "not squarefree" is only an answer at
    that prime.
    """
    if p is None:
        p = next(q for q in map(_crt_prime, count()) if f[-1] % q)
        f = [c % p for c in f]
    return poly_degree(poly_gcd(f, poly_deriv(f, p), p)) == 0


# What ``line_certificate`` found: the identity on every line drawn, the
# squarefreeness of P|_L on the last one, the ratio c of the first line (None
# when P|_L could not be formed), the number of lines, and the handles, one
# per component root, with their degrees.
LineCertificate = namedtuple(
    "LineCertificate", "identity squarefree unit lines_used handles"
)


def line_certificate(
    lfm,
    line,
    roots,
    degrees,
    mults,
    p: int | None = DEFAULT_PRIME,
    seed: int = DEFAULT_SEED,
) -> LineCertificate:
    """The handles of the component ``roots``, the factorization identity
    and the reducedness of the discriminant Delta over F_p, or over Q when
    ``p`` is None, from one random line, with no restriction of Delta
    itself.  ``lfm`` is the action matrix A of (q, d); ``degrees`` holds
    each root's degree, or None where it is to be read off the pencil.

    The line V0 + t V1 is ``line`` = (vec0, vec1, Delta(vec1)), the first
    line that ``_probe_line(lfm, p, seed)`` accepts, which ``certify`` draws
    before any other stage; Delta(vec0) is computed here.  On it
    ``sample_generic_witness`` takes the tree representation of root e_i
    as its witness, or, for a root with none, draws the witness on
    ``derive_seed(seed, 10, *e_i)``, redrawing while h(V1) = 0; a
    [witnesses] error follows when the tree witness has h(V1) = 0 or 32
    draws do.  The witness's pencil gives h|_L; a wrong declared degree
    fails the identity.  So each handle costs one pencil and nothing else.

    No weight is checked: c^W(g.V) = prod_x det(g_x)**w_x c^W(V) holds
    exactly with w = -eE (see ``semiinv``), and a wrong weight could only
    make a wrong multiplicity a_i or degree, which the identity below then
    fails, since it is checked on the handles themselves.

    Error terms per handle.  A degree read off the pencil, on a support
    without a level function, can only come out low, and only when
    h(V0) = 0, with probability at most k/|S|.  A low reading only lowers
    the weighted degree sum, so when the handles' degrees sum to dim Rep,
    as on a true factorization, it makes the verdict inconclusive: a false
    inconclusive, not a false accept.  Only a false factorization whose
    degrees sum above dim Rep could be brought to dim Rep by low readings,
    each again at most k/|S|.

    Then ``verify_factorization`` checks Delta = c * P, P = prod h_i^{a_i},
    at the line's two ends.  Once it holds, Delta|_L = c * P|_L, so
    Delta|_L is squarefree exactly when P|_L is.  The line has
    P(vec1) != 0, so a repeated factor g^2 of P restricts to g|_L^2 with
    deg g|_L = deg g: a squarefree P|_L proves P, hence Delta, reduced.
    Some a_i >= 2 makes P|_L not squarefree on every line, so no test is
    run and one line settles it.  When every a_i = 1 and P|_L is not
    squarefree, the line may be unlucky: the discriminant of P|_L, a
    nonzero polynomial in the line's coordinates when P is reduced,
    vanishes there with probability at most its degree over |S| (over Q
    the test of ``_squarefree`` also fails when its 62-bit prime divides
    that discriminant).  Then lines are redrawn, on
    ``split(trial, attempt)`` for trial = 1, 2, ..., up to
    CERTIFICATE_LINES lines in all; a redrawn line reuses the handles, and
    each checks the identity with the first line's c.
    """
    _require_prime_above_twice(p, lfm.size, "line_certificate")
    all_ones = all(a == 1 for a in mults)
    handles, unit = [], None
    for trial in range(CERTIFICATE_LINES):
        if trial:
            line = _probe_line(lfm, p, seed, trial)[0]
            if line is None:
                raise _no_line()
        vec0, vec1, delta1 = line
        # the reduced A(vec0) has the sparsity pattern of the reduced A(vec1):
        # it replays its plan
        ends = (vec0, vec1, lfm.det(vec0, p), delta1)
        v0, v1 = (lfm.coords.unflatten(vec, p) for vec in (vec0, vec1))
        if trial:
            restrictions = [h.restrict(h.pencil(v0, v1)) for h in handles]
        else:
            restrictions = []
            for e, k in zip(roots, degrees, strict=True):
                try:
                    h, f = sample_generic_witness(e, v0, v1, derive_seed(seed, 10, *e), k)
                except DegenerateWitnessError:
                    raise CertifyError(
                        "witnesses", f"no generic witness for orthogonal root {e}"
                    ) from None
                handles.append(h)
                restrictions.append(h.restrict(f))
        ok, c, prod = verify_factorization(restrictions, mults, ends, p)
        if trial == 0:
            unit = c
        if not ok or c != unit:
            return LineCertificate(False, False, unit, trial + 1, tuple(handles))
        # some a_i >= 2 makes P|_L not squarefree on every line
        squarefree = all_ones and _squarefree(prod, p)
        if squarefree or not all_ones:
            return LineCertificate(True, squarefree, unit, trial + 1, tuple(handles))
    return LineCertificate(True, False, unit, CERTIFICATE_LINES, tuple(handles))


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
    stats = VerificationStats(prime=prime, seed=seed)

    def report(verdict, reason=None, components=(), dim_rep=None, disc_w=None):
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
    # and each line the line certificate accepts proves it nonzero
    dim_rep = sum(d0[t] * d0[h] for t, h in zip(q0.tails, q0.heads))
    # the line certificate needs a prime above 2 * dim Rep; refuse a smaller
    # one before any stage samples
    if p is not None:
        _require_prime_above_twice(prime, dim_rep, "option prime")
    mode = "dynkin" if cls.kind == "dynkin" else "advisory"
    stats.mode = mode
    if opts.exact and mode != "dynkin":
        raise CertifyError("exact", "exact mode requires a Dynkin support")
    if opts.exact and dim_rep > 24:
        raise CertifyError("exact", "oversize exact-mode request (dim Rep > 24)")

    # the line, first on every support: Delta(vec1) != 0 proves d a Schur
    # root.  Every real root of a Dynkin support is one, so there 8 singular
    # leading members are a failure, not a verdict
    lfm = action_matrix(q0, d0)
    line, rank = _probe_line(lfm, p, seed)
    if line is None:
        if mode == "dynkin":
            raise _no_line()
        # every sample has dim End - dim Ext^1 = q(d) = 1
        end = dim_rep + 1 - rank
        stats.brick_endomorphism_dim, stats.brick_ext_dim = end, end - 1
        return report(
            VERDICT_INCONCLUSIVE,
            f"generic endomorphism dimension >= {end}; "
            "not a Schur root, the discriminant is the whole space",
            dim_rep=dim_rep,
        )
    if mode == "advisory":
        stats.brick_endomorphism_dim, stats.brick_ext_dim = 1, 0

    disc_w0 = discriminant_weight(q0, d0)
    disc_w = embed_vector(q, q0, disc_w0)

    # the deterministic core: the component roots are the simples of the
    # perpendicular category, with weights -eE, degrees sum_x w_x l(x) d_x
    # from a level function l, and multiplicities from the weight equation
    try:
        simples = perpendicular_simples(q0, d0)
    except ValueError as exc:
        raise CertifyError("orthogonal-roots", str(exc)) from None
    if not simples:
        # a single node: zero-dimensional representation space, empty discriminant
        return report(VERDICT_LFD, None, [], dim_rep, disc_w)
    weights0 = [weight_of_schofield(q0, e) for e in simples]
    # None without a level function (an unbalanced cycle): then the line
    # certificate reads each degree off its handle's pencil
    degrees = [weight_degree(q0, w, d0) for w in weights0]
    try:
        mults = multiplicity_vector(q0, d0, weights0)
    except ValueError as exc:
        msg = f"multiplicity solve failed: {exc}"
        if mode == "dynkin":
            raise CertifyError("multiplicities", msg)
        return report(VERDICT_INCONCLUSIVE, msg, [], dim_rep, disc_w)

    # the line certificate: the witnesses on one line, the identity at its
    # two ends and the squarefreeness of P|_L; its bound is dim Rep / |S|
    # (see verify_factorization)
    cert = line_certificate(lfm, line, simples, degrees, mults, p, seed)
    stats.lines_used = cert.lines_used
    unit = cert.unit
    stats.unit_ratio = str(unit) if p is None and unit is not None else unit
    sample_size = prime if p is not None else 2 * EXACT_LINE_RANGE + 1
    stats.ratio_point_bound_log2 = math.log2(dim_rep) - math.log2(sample_size)

    # the weight equation implies this sum on a level support; it catches a
    # degree read too low off a pencil on an unbalanced cycle
    degrees = [h.degree for h in cert.handles]
    total = sum(a * k for a, k in zip(mults, degrees))
    if total != dim_rep:
        msg = f"weighted degree sum {total} != dim Rep = {dim_rep}"
        return report(VERDICT_INCONCLUSIVE, msg, [], dim_rep, disc_w)

    # assemble components in canonical order: by degree, then root
    order = sorted(range(len(simples)), key=lambda i: (degrees[i], simples[i]))
    components = []
    for pos, i in enumerate(order):
        e, deg = simples[i], degrees[i]
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
    if not cert.identity:
        return report(
            VERDICT_INCONCLUSIVE,
            "factorization identity fails on the probe line",
            components,
            dim_rep,
            disc_w,
        )
    if all_ones != cert.squarefree:
        return report(
            VERDICT_INCONCLUSIVE,
            f"reducedness signals disagree: multiplicities all 1 = {all_ones}, "
            f"P|_L squarefree on {cert.lines_used} line(s) = {cert.squarefree}",
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
