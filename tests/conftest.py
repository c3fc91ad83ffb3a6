from dataclasses import astuple

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
    key = (serialize(q, d), astuple(opts))
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
