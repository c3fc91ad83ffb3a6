"""The package imports nothing outside the standard library, and the CLI
imports only what a certification runs."""

import subprocess
import sys
from pathlib import Path

from qlfd.fixtures import builtin
from qlfd.qfile import serialize

from conftest import child_env

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports every module of the package and runs a small modular and exact
# certification, so that imports made inside functions count too.  Names
# loaded before qlfd (site hooks from .pth files) are left out.
PROBE = """
import importlib, io, pkgutil, sys
from contextlib import redirect_stdout
before = {name.partition(".")[0] for name in sys.modules}
import qlfd
for mod in pkgutil.iter_modules(qlfd.__path__):
    importlib.import_module("qlfd." + mod.name)
from qlfd.cli import main
with redirect_stdout(io.StringIO()):
    assert main(["certify", "--builtin", "a3", "--format", "json"]) == 0
    assert main(["certify", "--builtin", "a3", "--exact", "--format", "json"]) == 0
after = {name.partition(".")[0] for name in sys.modules}
print(" ".join(sorted(after - before - set(sys.stdlib_module_names))))
"""


def test_package_imports_only_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True, timeout=120,
        env=child_env(PYTHONPATH=str(SRC)),
    )
    assert out.stdout.split() == ["qlfd"]


# Modules a certification never runs, each of which would add to the set-up
# of every CLI call.  The standard-library modules the CLI does use load none
# of them on Pythons 3.10 to 3.13.  argparse, with the gettext and locale it
# loads, is built only for help and usage errors.
NOT_ON_THE_CLI_PATH = (
    "dataclasses", "inspect", "typing", "difflib", "ast", "dis", "qlfd.fixtures",
    "argparse", "gettext", "locale",
)


def test_cli_import_loads_no_unused_module():
    # -S keeps site hooks from .pth files, which may load typing, out of it
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qlfd.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, timeout=60, env=child_env(),
    )
    loaded = set(out.stdout.split())
    assert "qlfd.cli" in loaded
    assert loaded.isdisjoint(NOT_ON_THE_CLI_PATH), sorted(loaded.intersection(NOT_ON_THE_CLI_PATH))


def test_plain_certify_loads_no_unused_module(tmp_path):
    # a plain command line is read without argparse, which would load gettext
    # and locale on its first message
    path = tmp_path / "a5.qf"
    path.write_text(serialize(*builtin("a5")))
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); from qlfd.cli import main; "
        f"code = main(['certify', '--file', {str(path)!r}, '--format', 'json']); "
        "print(code, *sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, timeout=60, env=child_env(),
    )
    code, *loaded = out.stdout.splitlines()[-1].split()
    assert code == "0" and "qlfd.certify" in loaded
    unused = set(loaded).intersection(NOT_ON_THE_CLI_PATH)
    assert not unused, sorted(unused)
