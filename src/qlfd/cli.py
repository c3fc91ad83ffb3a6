"""Command-line interface: quiver input, builtin fixtures, and table/JSON
report emission.

Commands: euler, roots, semiinv, discriminant, certify, table.  Exit codes:
0 definitive verdict (or plain data command), 2 inconclusive verdict,
1 error.  Identical (command, seed, prime) invocations emit byte-identical
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import DEFAULT_PRIME, PrimeField, derive_seed
from .certify import (
    DEFAULT_SEED,
    CertifyError,
    CertifyOptions,
    certify,
    check_seed,
    discriminant_degree,
)
from .qfile import QuiverFileError, parse_path, serialize
from .quiver import (
    cartan_matrix,
    classify_underlying_graph,
    embed_vector,
    euler_inverse,
    euler_matrix,
    is_acyclic,
    support_subquiver,
    tits_form,
)
from .roots import (
    brick_probe,
    highest_root,
    orthogonal_roots,
    perpendicular_simples,
    positive_roots,
)
from .semiinv import discriminant_weight

_LAYOUT_NOTE = (
    "Builtin fixtures number nodes left to right along the long arm with the "
    "branch node last, so vectors printed here line up with that order."
)


def _load(args) -> tuple:
    if args.builtin and args.file:
        raise SystemExit2("use either --builtin or --file, not both")
    if not args.builtin and not args.file:
        raise SystemExit2("one of --builtin or --file is required")
    if args.builtin:
        from .fixtures import builtin

        try:
            return builtin(args.builtin)
        except KeyError as exc:
            raise SystemExit2(str(exc.args[0]))
    try:
        return parse_path(args.file)
    except (OSError, QuiverFileError) as exc:
        raise SystemExit2(str(exc))


class SystemExit2(Exception):
    """CLI-level error; rendered to stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit code 1, not argparse's usage dump and
    exit code 2, which would read as an inconclusive verdict."""

    def error(self, message):
        raise SystemExit2(message)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _mat_lines(m) -> list[str]:
    if not m:
        return ["[]"]
    widths = [max(len(str(m[i][j])) for i in range(len(m))) for j in range(len(m[0]))]
    return [
        "[" + " ".join(str(x).rjust(w) for x, w in zip(row, widths)) + "]" for row in m
    ]


def _options(args) -> CertifyOptions:
    return CertifyOptions(prime=args.prime, seed=args.seed, exact=args.exact)


def _cmd_euler(q, d, args) -> int:
    e = euler_matrix(q)
    cls = classify_underlying_graph(q)
    cls_label = cls.label if not isinstance(cls, list) else [c.label for c in cls]
    payload = {
        "command": "euler",
        "quiver": q.name,
        "nodes": list(q.nodes),
        "dimension_vector": list(d),
        "euler_matrix": e,
        "cartan_matrix": cartan_matrix(q),
        "tits_form": tits_form(q, d),
        "classification": cls_label,
    }
    lines = [f"quiver {q.name or '(unnamed)'}: nodes {', '.join(q.nodes)}"]
    lines.append(f"classification: {cls_label}")
    lines.append(f"d = {_vec(d)}   q(d) = {payload['tits_form']}")
    lines.append("Euler matrix E = I - A:")
    lines += ["  " + s for s in _mat_lines(e)]
    if is_acyclic(q):
        inv = euler_inverse(q)
        payload["euler_inverse"] = inv
        lines.append("E^{-1} = I + (path counts):")
        lines += ["  " + s for s in _mat_lines(inv)]
    lines.append("Cartan matrix C = E + E^T:")
    lines += ["  " + s for s in _mat_lines(payload["cartan_matrix"])]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_roots(q, d, args) -> int:
    sub, dsub = support_subquiver(q, d)
    cls = classify_underlying_graph(sub)
    dynkin = not isinstance(cls, list) and cls.kind == "dynkin"
    if not dynkin:
        # every real root of a Dynkin support is a Schur root; elsewhere the
        # brick probe refuses a non-Schur root before the reflection search,
        # which would spend its whole state bound on it
        if args.prime <= 2**40:
            raise ValueError(
                f"option prime needs a prime above 2**40 on a non-Dynkin "
                f"support: {args.prime} <= 2**40"
            )
        brick = brick_probe(sub, dsub, args.prime, derive_seed(args.seed, 101))
        if brick.verdict != "brick":
            raise SystemExit2(
                f"not a Schur root: dim End >= {brick.endomorphism_dim} at "
                f"{brick.trials} sampled representations"
            )
    simples = [embed_vector(q, sub, s) for s in perpendicular_simples(sub, dsub)]
    payload = {
        "command": "roots",
        "quiver": q.name,
        "support_nodes": list(sub.nodes),
        "semigroup_basis": [list(r) for r in simples],
    }
    listed = []
    if dynkin:
        roots = positive_roots(sub)
        top = highest_root(sub)
        ortho = orthogonal_roots(q, d)
        payload["positive_root_count"] = len(roots)
        payload["positive_roots"] = [list(r) for r in roots]
        payload["highest_root"] = list(top)
        payload["orthogonal_roots"] = [list(r) for r in ortho]
        head = f"{len(roots)} positive roots, highest root {_vec(top)}"
        listed = [f"orthogonal to d = {_vec(dsub)}: {len(ortho)} roots"]
        listed += ["  " + _vec(r) for r in ortho]
    else:
        head = "not a connected Dynkin diagram"
    lines = [f"support {', '.join(sub.nodes)}: {head}", *listed]
    lines.append(f"semigroup basis ({len(simples)}):")
    lines += ["  " + _vec(r) for r in simples]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_discriminant(q, d, args) -> int:
    # the prime need only exceed twice the degree, which discriminant_degree checks
    deg = discriminant_degree(q, d, None if args.exact else args.prime, args.seed)
    w = discriminant_weight(q, d)
    payload = {
        "command": "discriminant",
        "quiver": q.name,
        "dimension_vector": list(d),
        "dim_rep": deg,
        "degree": deg,
        "weight": list(w),
        "minus_weight": [-x for x in w],
    }
    text = (
        f"dim Rep = deg(discriminant equation) = {deg}\n"
        f"weight  = {_vec(w)}\n"
        f"-weight = {_vec([-x for x in w])}"
    )
    _emit(args, payload, text)
    return 0


def _verdict_exit(report) -> int:
    return 0 if report.definitive else 2


def _cmd_certify(q, d, args) -> int:
    report = certify(q, d, _options(args))
    payload = {"command": "certify", **report.to_dict()}
    lines = [
        f"quiver {report.quiver_name or '(unnamed)'}   d = {_vec(report.dims)}",
        f"dim Rep = {report.dim_rep}",
        f"verdict: {report.verdict}" + (f" ({report.reason})" if report.reason else ""),
    ]
    if report.components:
        lines.append(f"components ({len(report.components)}):")
        for c in report.components:
            lines.append(
                f"  {c.handle_id}: deg {c.degree}  mult {c.multiplicity}  "
                f"root {_vec(c.root)}  -weight {_vec([-x for x in c.weight])}  "
                f"type ({c.type_root}, {c.type_weight})"
            )
    st = report.stats
    lines.append(
        f"stats: prime {st.prime}, seed {st.seed}, mode {st.mode}, "
        f"unit {st.unit_ratio}, bound 2^{st.ratio_point_bound_log2:.1f}"
        if st.ratio_point_bound_log2 is not None
        else f"stats: prime {st.prime}, seed {st.seed}, mode {st.mode}"
    )
    _emit(args, payload, "\n".join(lines))
    return _verdict_exit(report)


def _cmd_semiinv(q, d, args) -> int:
    report = certify(q, d, _options(args))
    payload = {"command": "semiinv", **report.to_dict()}
    lines = [f"semi-invariant components for d = {_vec(report.dims)}"]
    if not report.components:
        lines.append(f"none computed: {report.verdict}"
                     + (f" ({report.reason})" if report.reason else ""))
    for c in report.components:
        lines.append(
            f"{c.handle_id}: root {_vec(c.root)}  degree {c.degree}  "
            f"weight {_vec(c.weight)}  multiplicity {c.multiplicity}  "
            f"handle {c.handle_kind}"
        )
    if args.builtin:
        from .fixtures import block_handles

        try:
            recipes = block_handles(args.builtin)
        except KeyError:
            recipes = {}
        if recipes:
            payload["block_recipes"] = {
                ",".join(str(x) for x in root): bh.recipe.to_dict()
                for root, bh in sorted(recipes.items())
            }
            lines.append("block recipes:")
            for root, bh in sorted(recipes.items()):
                lines.append(f"  root {_vec(root)}: {bh.label}")
    _emit(args, payload, "\n".join(lines))
    return _verdict_exit(report)


def _cmd_table(q, d, args) -> int:
    report = certify(q, d, _options(args))
    payload = {"command": "table", **report.to_dict()}
    headers = ["Polynomial", "Deg", "Root^(perp d)", "-Weight", "Type"]
    rows = []
    for c in report.components:
        mult = "" if c.multiplicity == 1 else f"^{c.multiplicity}"
        rows.append(
            [
                c.handle_id + mult,
                str(c.degree),
                " ".join(str(x) for x in c.root),
                " ".join(str(-x) for x in c.weight),
                f"({c.type_root}, {c.type_weight})",
            ]
        )
    ids = [c.handle_id + ("" if c.multiplicity == 1 else f"^{c.multiplicity}")
           for c in report.components]
    rows.append(
        [
            "Delta = (unit)" + "".join(ids) if ids else "Delta",
            str(report.dim_rep),
            "",
            " ".join(str(-x) for x in report.disc_weight),
            "",
        ]
    )
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0)) for i, h in enumerate(headers)]
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [sep, "| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |", sep]
    for r in rows:
        lines.append("| " + " | ".join(x.ljust(w) for x, w in zip(r, widths)) + " |")
    lines.append(sep)
    lines.append(f"verdict: {report.verdict}" + (f" ({report.reason})" if report.reason else ""))
    _emit(args, payload, "\n".join(lines))
    return _verdict_exit(report)


_COMMANDS = {
    "euler": _cmd_euler,
    "roots": _cmd_roots,
    "semiinv": _cmd_semiinv,
    "discriminant": _cmd_discriminant,
    "certify": _cmd_certify,
    "table": _cmd_table,
}


def _builtins_epilog() -> str:
    from .fixtures import builtin_names

    return "builtin fixtures: " + ", ".join(builtin_names())


def _build_parser(command) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` only, or with every
    subparser when ``command`` names none (a bare ``qlfd``, ``--help``, a
    typo), so that help and errors list them all."""
    parser = _Parser(
        prog="qlfd",
        description=(
            "Representation spaces of quivers: discriminant equations, "
            "semi-invariant factorizations, and linear free divisor "
            "certification. " + _LAYOUT_NOTE
        ),
        # shown only by the top-level help, which a named command never prints
        epilog=None if command in _COMMANDS else _builtins_epilog(),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    env_seed = os.environ.get("QLFD_SEED")
    try:
        default_seed = int(env_seed) if env_seed else DEFAULT_SEED
    except ValueError:
        raise SystemExit2(f"QLFD_SEED must be an integer, got {env_seed!r}") from None
    for name in [command] if command in _COMMANDS else _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--builtin", help="builtin fixture name")
        p.add_argument("--file", help="quiver file path")
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        p.add_argument("--seed", type=int, default=default_seed)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--exact", action="store_true",
                       help="exact rational checks (small Dynkin fixtures only)")
        p.add_argument("--dump", action="store_true",
                       help="also print the canonical quiver file form")
        p.set_defaults(handler=_COMMANDS[name])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        PrimeField(args.prime)
        q, d = _load(args)
        check_seed(args.seed)  # for every command, not only those that draw
        if args.dump:
            sys.stdout.write(serialize(q, d))
        return args.handler(q, d, args)
    except SystemExit2 as exc:
        sys.stderr.write(f"error: {exc.args[0] if exc.args else exc}\n")
        return 1
    except (ValueError, KeyError, CertifyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
