import os

import pytest

from qlfd import CertifyOptions, certify
from qlfd.fixtures import builtin
from qlfd.qfile import serialize

_CACHE = {}


def cached_certify(q, d, options=None):
    """Session-cached ``certify``, keyed by the canonical quiver file text and
    the option values, so that every test asking for the same certification
    (through the library or through the CLI) shares one run."""
    opts = options or CertifyOptions()
    key = (serialize(q, d), (opts.prime, opts.seed, opts.exact))
    if key not in _CACHE:
        _CACHE[key] = certify(q, d, opts)
    return _CACHE[key]


def certified(name, **kw):
    """Session-cached certification report for a builtin fixture."""
    q, d = builtin(name)
    return cached_certify(q, d, CertifyOptions(**kw))


@pytest.fixture(scope="session")
def report_for():
    return certified


def child_env(**env):
    """A minimal environment for a child interpreter: ``env``, and
    PYTHONDONTWRITEBYTECODE when this process has it, so that a test run
    told to write no bytecode leaves none under ``src``."""
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    if flag is not None:
        env["PYTHONDONTWRITEBYTECODE"] = flag
    return env
