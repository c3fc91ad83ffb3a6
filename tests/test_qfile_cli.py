import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import qlfd
from qlfd import arith, cli
from qlfd.cli import main
from qlfd.fixtures import block_handles, builtin, builtin_names
from qlfd.qfile import QuiverFileError, parse, serialize

from conftest import cached_certify


def test_parse_a3_file():
    text = """
# a three-node chain
quiver demo
node 1
node 2
node 3
arrow a 1 2
arrow b 2 3
dim 1 1
dim 2 1
dim 3 1
"""
    q, d = parse(text)
    assert q.name == "demo"
    assert q.nodes == ("1", "2", "3")
    assert d == (1, 1, 1)
    assert [(a.name, a.tail, a.head) for a in q.arrows] == [("a", "1", "2"), ("b", "2", "3")]


def test_parse_missing_dim():
    text = "node 1\nnode 2\narrow a 1 2\ndim 1 1\n"
    with pytest.raises(QuiverFileError, match="missing dimension for node"):
        parse(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(QuiverFileError, match="line 2"):
        parse("node 1\nfrob 2\n")
    with pytest.raises(QuiverFileError, match="line 3"):
        parse("node 1\nnode 2\narrow a 1 9\n")
    with pytest.raises(QuiverFileError, match="line 2"):
        parse("node 1\ndim 1 -3\n")


def test_serialize_round_trip_all_builtins():
    for name in builtin_names():
        q, d = builtin(name)
        text = serialize(q, d)
        q2, d2 = parse(text)
        assert q2 == q and d2 == d
        assert serialize(q2, d2) == text  # byte-identical canonical form


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_requires_input(capsys):
    code, _, err = run_cli(capsys, "euler")
    assert code == 1 and "required" in err


def test_cli_conflicting_inputs(capsys):
    code, _, err = run_cli(capsys, "euler", "--builtin", "a3", "--file", "x.q")
    assert code == 1 and "not both" in err


def test_cli_unknown_builtin_suggests(capsys):
    code, _, err = run_cli(capsys, "euler", "--builtin", "e8-central-sync")
    assert code == 1
    assert "e8-central-sink" in err


def test_cli_certify_unknown_builtin_suggests(capsys):
    # the suggestion comes from the fixtures, which the CLI loads only here
    code, out, err = run_cli(capsys, "certify", "--builtin", "e8-centrl-sink")
    assert (code, out) == (1, "")
    assert err == "error: unknown builtin quiver 'e8-centrl-sink'; did you mean e8-central-sink?\n"


def test_cli_help_epilog_lists_every_builtin(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "4000")  # one line: no wrap inside a name
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.endswith("\nbuiltin fixtures: " + ", ".join(builtin_names()) + "\n")


def test_cli_semiinv_lists_the_block_recipes(capsys):
    code, out, _ = run_cli(capsys, "semiinv", "--builtin", "e8-central-sink", "--format", "json")
    recipes = json.loads(out)["block_recipes"]
    assert code == 0 and len(recipes) == 7
    roots = block_handles("e8-central-sink")
    assert sorted(recipes) == sorted(",".join(map(str, r)) for r in roots)


@pytest.mark.parametrize("name", ["E8-central-sink", " e8-central-sink "])
def test_cli_semiinv_finds_the_block_recipes_under_any_name_builtin_accepts(capsys, name):
    # builtin strips and lowercases the name; the recipes are looked up by
    # the same key
    assert block_handles(name).keys() == block_handles("e8-central-sink").keys()
    code, out, _ = run_cli(capsys, "semiinv", "--builtin", name, "--format", "json")
    assert code == 0 and len(json.loads(out)["block_recipes"]) == 7


def test_cli_exact_mode_limits_apply_to_certify_not_discriminant(capsys):
    # discriminant --exact is one determinant lifted by the Chinese remainder
    # theorem, on any support; certify --exact needs a small Dynkin support
    argv = ["--builtin", "star7", "--exact", "--format", "json"]
    code, out, err = run_cli(capsys, "discriminant", *argv)
    assert code == 0 and err == "" and json.loads(out)["dim_rep"] == 56
    code, out, err = run_cli(capsys, "certify", *argv)
    assert code == 1 and out == ""
    assert err == "error: [exact] exact mode requires a Dynkin support\n"


def test_cli_euler_text(capsys):
    code, out, _ = run_cli(capsys, "euler", "--builtin", "a3")
    assert code == 0
    assert "Euler matrix" in out and "A3" in out


def test_cli_certify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "certify", "--builtin", "a5")
    assert code == 0 and "linear-free-divisor" in out
    code2, out2, _ = run_cli(capsys, "certify", "--builtin", "tilde-d4-iv")
    assert code2 == 2 and "inconclusive" in out2
    code3, out3, _ = run_cli(capsys, "certify", "--builtin", "q3")
    assert code3 == 0 and "not-reduced" in out3


def test_cli_json_deterministic(capsys):
    code1, out1, _ = run_cli(
        capsys, "certify", "--builtin", "d4-prop", "--format", "json", "--seed", "5"
    )
    code2, out2, _ = run_cli(
        capsys, "certify", "--builtin", "d4-prop", "--format", "json", "--seed", "5"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"] == "linear-free-divisor"
    assert doc["stats"]["seed"] == 5


def test_cli_table_degree_column_sums_to_dim_rep(capsys):
    for name in ["a4", "d5-prop", "e6-q2"]:
        code, out, _ = run_cli(capsys, "table", "--builtin", name, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        total = sum(c["degree"] * c["multiplicity"] for c in doc["components"])
        assert total == doc["dim_rep"], name


def test_cli_table_e8_degree_column(capsys, monkeypatch):
    # the acceptance suite certifies E8 with the same options; share that run
    monkeypatch.setattr(cli, "certify", cached_certify)
    code, out, _ = run_cli(
        capsys, "table", "--builtin", "e8-central-sink", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["degree"] for c in doc["components"]] == [12, 12, 12, 12, 20, 20, 30]


def test_cli_roots_and_discriminant(capsys):
    code, out, _ = run_cli(capsys, "roots", "--builtin", "a3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["positive_root_count"] == 6
    assert doc["semigroup_basis"] == [[0, 1, 0], [1, 0, 0]]
    code2, out2, _ = run_cli(capsys, "discriminant", "--builtin", "e6-q1", "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["degree"] == 22


def test_cli_roots_on_definite_non_dynkin_support(capsys):
    code, out, err = run_cli(capsys, "roots", "--builtin", "star5", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert "positive_roots" not in doc and "highest_root" not in doc
    assert "orthogonal_roots" not in doc
    leaves = [tuple(1 - (i == j) for j in range(6)) for i in range(6)]
    assert doc["semigroup_basis"] == sorted(list(v) + [4] for v in leaves)
    code, out, _ = run_cli(capsys, "roots", "--builtin", "star5")
    assert code == 0
    assert out.splitlines()[0] == "support 1, 2, 3, 4, 5, 6, 7: not a connected Dynkin diagram"


@pytest.mark.parametrize("name", ["tilde-d4-iv"])
def test_cli_roots_rejects_non_definite_lattice(capsys, name):
    # d is a real root but not a Schur root there: the leading members of
    # certify's first line, all singular, refuse it before the reflection
    # search runs
    code, out, err = run_cli(capsys, "roots", "--builtin", name)
    assert code == 1 and out == ""
    assert err == "error: not a Schur root: dim End >= 2 at 8 sampled representations\n"


WILD_FILE = """quiver wild
node 0
node 1
node 2
arrow a 0 1
arrow b 0 1
arrow c 1 2
arrow e 1 2
dim 0 2
dim 1 7
dim 2 2
"""


def test_cli_roots_probes_a_wild_non_schur_root_before_the_search(tmp_path, capsys, monkeypatch):
    # d = (2,7,2) on 0 => 1 => 2 is a real root with generic dim End 10; the
    # reflection search would spend its whole state bound before refusing it
    calls = []
    monkeypatch.setattr(cli, "perpendicular_simples", lambda *a: calls.append(a))
    path = tmp_path / "wild.qf"
    path.write_text(WILD_FILE)
    code, out, err = run_cli(capsys, "roots", "--file", str(path))
    assert (code, out) == (1, "") and calls == []
    assert err == "error: not a Schur root: dim End >= 10 at 8 sampled representations\n"
    # the line needs a prime above 2 * dim Rep = 2 * 56, as in certify
    code, out, err = run_cli(capsys, "roots", "--file", str(path), "--prime", "109")
    assert (code, out) == (1, "") and calls == []
    assert err == "error: option prime needs a prime above twice the degree: 109 <= 2 * 56\n"
    code, out, err = run_cli(capsys, "roots", "--file", str(path), "--prime", "113")
    assert (code, out) == (1, "") and calls == []
    assert err == "error: not a Schur root: dim End >= 10 at 8 sampled representations\n"
    # certify reads the same lines: inconclusive, and not an error
    code, out, err = run_cli(capsys, "certify", "--file", str(path), "--format", "json")
    doc = json.loads(out)
    assert (code, err, doc["verdict"], doc["stats"]["brick_endomorphism_dim"]) == (
        2, "", "inconclusive", 10
    )


def test_cli_roots_skips_the_brick_probe_on_a_dynkin_support(capsys, monkeypatch):
    # every real root of a Dynkin support is a Schur root: roots draws no
    # line there, at any prime
    monkeypatch.setattr(cli, "_probe_line", None)
    code, out, err = run_cli(capsys, "roots", "--builtin", "e8-central-sink", "--prime", "101")
    assert code == 0 and err == ""


def test_cli_roots_lists_the_q3_components(capsys, report_for):
    # q is indefinite on d-perp for q3; the simples are its 6 component roots
    code, out, err = run_cli(capsys, "roots", "--builtin", "q3", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert "orthogonal_roots" not in doc
    components = sorted(list(c.root) for c in report_for("q3").components)
    assert doc["semigroup_basis"] == components and len(components) == 6
    code, out, _ = run_cli(capsys, "roots", "--builtin", "q3")
    assert code == 0
    assert out.splitlines()[1:] == ["semigroup basis (6):"] + [
        "  (" + ",".join(map(str, r)) + ")" for r in components
    ]


def test_cli_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QLFD_SEED", "77")
    code, out, _ = run_cli(capsys, "certify", "--builtin", "a3", "--format", "json")
    assert code == 0
    assert json.loads(out)["stats"]["seed"] == 77


def test_cli_file_input(tmp_path, capsys):
    q, d = builtin("d4-prop")
    path = tmp_path / "d4.quiver"
    path.write_text(serialize(q, d), encoding="utf-8")
    code, out, _ = run_cli(capsys, "certify", "--file", str(path))
    assert code == 0 and "linear-free-divisor" in out


def test_cli_dump_round_trip(capsys):
    code, out, _ = run_cli(capsys, "euler", "--builtin", "e8-central-sink", "--dump")
    assert code == 0
    assert out.startswith("quiver e8-central-sink\n")
    q, d = builtin("e8-central-sink")
    assert serialize(q, d) in out


@pytest.mark.parametrize("command, name", [("euler", "a3"), ("certify", "d4-prop")])
def test_cli_dump_json_is_one_document(capsys, command, name):
    # under JSON the quiver file is a payload field, not text before the document
    code, out, err = run_cli(capsys, command, "--builtin", name, "--dump", "--format", "json")
    assert (code, err) == (0, "")
    assert parse(json.loads(out)["quiver_file"]) == builtin(name)


@pytest.mark.parametrize(
    "argv",
    [
        ["--trials", "0"],
        ["--trials", "-5"],
        ["--seed", "-5"],
        ["--seed", str(2**64)],
        ["--bogus"],
        ["--format", "xml"],
        ["--seed", "abc"],
        None,
    ],
)
def test_cli_rejects_bad_options(capsys, argv):
    # usage errors exit 1 with one stderr line, not argparse's exit 2 and
    # usage dump, since 2 means an inconclusive verdict; None is a bare qlfd
    args = [] if argv is None else ["certify", "--builtin", "a3", *argv]
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qlfd certify")


def test_cli_seed_env_negative_is_rejected(capsys, monkeypatch):
    monkeypatch.setenv("QLFD_SEED", "-5")
    code, _, err = run_cli(capsys, "certify", "--builtin", "a3")
    assert code == 1 and "seed" in err


@pytest.mark.parametrize("value", ["abc", "1e3"])
def test_cli_seed_env_malformed_is_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("QLFD_SEED", value)
    code, out, err = run_cli(capsys, "certify", "--builtin", "a3")
    assert code == 1 and out == ""
    assert err.startswith("error: QLFD_SEED") and err.count("\n") == 1


@pytest.mark.parametrize(
    "prime, code",
    [
        (2**89 - 1, 1),  # above the proven range of the primality test
        (2**80 - 65, 0),  # a prime above 2**64 that random draws must reach
    ],
)
def test_cli_large_prime_finishes_cleanly(prime, code):
    # a subprocess with a timeout, so that a hanging random stream fails the
    # test instead of stalling the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlfd.__file__)))
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "qlfd.cli", "certify", "--builtin", "a3",
         "--prime", str(prime), "--format", "json"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error: modulus") and proc.stdout == ""
    else:
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "linear-free-divisor"
        assert doc["stats"]["prime"] == prime


def test_cli_bad_prime(capsys):
    code, _, err = run_cli(capsys, "certify", "--builtin", "a3", "--prime", "91")
    assert code == 1 and "not prime" in err


@pytest.mark.parametrize("prime, message", [
    (91, "modulus 91 is not prime"),
    (2**89 - 1, f"modulus {2**89 - 1} is too large"),
])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_rejects_a_bad_prime_for_every_command(capsys, command, prime, message):
    code, out, err = run_cli(capsys, command, "--builtin", "a3", "--prime", str(prime))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_cli_certify_tests_the_option_prime_once(capsys, monkeypatch):
    # main checks the option prime for every command, and CertifyOptions
    # checks it again: Miller-Rabin runs on it once
    prime = 2**61 - 1
    tested = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
    arith.check_prime.cache_clear()
    code, out, _ = run_cli(capsys, "certify", "--builtin", "a4", "--prime", str(prime))
    assert code == 0 and "linear-free-divisor" in out
    assert tested.count(prime) == 1


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_cli_discriminant_rejects_seed_outside_64_bits(capsys, seed):
    code, out, err = run_cli(capsys, "discriminant", "--builtin", "a3", "--seed", seed)
    assert code == 1 and out == ""
    assert err.startswith("error: seed must lie in [0, 2**64)") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["a3", "star5"])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_cli_rejects_seed_outside_64_bits_for_every_command(capsys, command, name):
    # the seed is checked once in main, before any command runs
    code, out, err = run_cli(capsys, command, "--builtin", name, "--seed", "-5")
    assert (code, out, err) == (1, "", "error: seed must lie in [0, 2**64), got -5\n")


def test_cli_builds_only_the_named_subparser(capsys):
    assert "{roots}" in cli._build_parser("roots").format_usage()
    for argv0 in (None, "--help", "certfy"):
        usage = cli._build_parser(argv0).format_usage()
        assert "{euler,roots,semiinv,discriminant,certify,table}" in usage
    code, _, err = run_cli(capsys, "certfy", "--builtin", "a3")
    assert code == 1 and "invalid choice" in err and "semiinv" in err
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "{euler,roots,semiinv,discriminant,certify,table}" in capsys.readouterr().out


def test_cli_small_prime_certify_is_inconclusive(capsys):
    assert main(["certify", "--builtin", "a4", "--prime", "7"]) == 2
    assert "false-accept bound 2^-1.2 is not below 2^-40" in capsys.readouterr().out


def test_cli_discriminant_names_the_prime_bound(capsys):
    # star2 has degree 6, so 2 cannot show that the discriminant is nonzero
    code, out, err = run_cli(capsys, "discriminant", "--builtin", "star2", "--prime", "2")
    assert code == 1 and out == ""
    assert err == "error: discriminant_degree needs a prime above twice the degree: 2 <= 2 * 6\n"


def test_cli_certify_checks_the_prime_before_any_stage(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a witness was sampled before the prime was checked")

    certify_module = importlib.import_module("qlfd.certify")
    monkeypatch.setattr(certify_module, "sample_generic_witness", refuse)
    code, out, err = run_cli(
        capsys, "certify", "--builtin", "e8-central-sink", "--prime", "233"
    )
    assert code == 1 and out == ""
    assert err == (
        "error: option prime needs a prime above twice the degree: 233 <= 2 * 118\n"
    )


def test_cli_certify_rejects_prime_below_five(capsys):
    code, out, err = run_cli(capsys, "certify", "--builtin", "a2", "--prime", "3")
    assert code == 1 and out == ""
    assert err == "error: prime must be at least 5, got 3\n"


# Pieces of command lines: each option with a valid value, then invalid
# values, missing values and the forms that only argparse reads.
_VALID_PIECES = [
    ["--builtin", "a3"], ["--builtin", ""], ["--file", "x.qf"], ["--prime", "101"],
    ["--prime", "+7"], ["--prime", "1_0"], ["--prime", " 13"], ["--seed", "5"],
    ["--seed", "+5"], ["--format", "json"], ["--format", "text"], ["--exact"],
    ["--dump"], ["--exact", "--exact"], ["--seed", "5", "--seed", "6"],
]
_OTHER_PIECES = [
    ["--builtin", "-x"], ["--builtin"], ["--file", "--exact"], ["--file"],
    ["--prime", "-5"], ["--prime", "abc"], ["--prime", "1.5"], ["--prime"],
    ["--seed", "-5"], ["--seed", "0x10"], ["--seed", "abc"], ["--seed", "-"], ["--seed"],
    ["--format", "xml"], ["--format", ""], ["--format"],
    ["--exact=1"], ["--seed=5"], ["--format=json"], ["--bui", "a3"], ["--se", "5"],
    ["--f", "x"], ["--", "a3"], ["--"], ["-h"], ["--help"], ["stray"], ["-5"],
    ["--trials", "0"], ["--bogus"],
]
_COMMAND_TOKENS = [*cli._COMMANDS, "certfy", "-h", "--help"]


def _command_lines():
    lines = [[], *([c] for c in _COMMAND_TOKENS)]
    lines += [["certify", *piece] for piece in _VALID_PIECES + _OTHER_PIECES]
    rng = random.Random(20240)
    for _ in range(300):
        pieces = [rng.choice(_VALID_PIECES if rng.random() < 0.8 else _OTHER_PIECES)
                  for _ in range(rng.randint(1, 5))]
        lines.append([rng.choice(_COMMAND_TOKENS), *(t for p in pieces for t in p)])
    return lines


def _argparse_outcome(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli._build_parser(argv[0] if argv else None).parse_args(argv))
    except cli.SystemExit2 as exc:
        return ("usage error", exc.args)
    except SystemExit as exc:
        return ("exit", exc.code)


@pytest.mark.parametrize("env_seed", [None, "77", "abc"])
def test_plain_reader_agrees_with_argparse(monkeypatch, env_seed):
    # wherever the plain reader returns arguments, argparse returns the same
    # ones; wherever argparse prints help or a usage error, the reader
    # declines, so every message still comes from argparse
    if env_seed is None:
        monkeypatch.delenv("QLFD_SEED", raising=False)
    else:
        monkeypatch.setenv("QLFD_SEED", env_seed)
    read = 0
    for argv in _command_lines():
        plain = cli._plain_args(argv)
        parsed = _argparse_outcome(argv)
        if plain is not None:
            read += 1
            assert vars(plain) == parsed, argv
        if not isinstance(parsed, dict):
            assert plain is None, argv
    # the malformed QLFD_SEED is argparse's to report, on every line
    assert read > 50 if env_seed != "abc" else read == 0
