"""Census of every positive root of a Dynkin builtin against the Euler form.

Every positive root of a Dynkin quiver is a real Schur root.  ``census``
certifies each one in the builtin's orientation and checks the verdict
against the Euler-form prediction: ``linear-free-divisor`` exactly when
every entry of ``multiplicity_vector`` over the simples of the
perpendicular category is 1.  It returns the count of each verdict.

Usage: PYTHONPATH=src python tests/census.py NAME...
"""

import sys
from collections import Counter

from qlfd.certify import (
    VERDICT_LFD,
    VERDICT_NOT_REDUCED,
    certify,
    multiplicity_vector,
)
from qlfd.fixtures import builtin
from qlfd.quiver import support_subquiver
from qlfd.roots import perpendicular_simples, positive_roots
from qlfd.semiinv import weight_of_schofield


def predicted_verdict(q, d) -> str:
    """The verdict the Euler form predicts for the real Schur root d."""
    q0, d0 = support_subquiver(q, d)
    simples = perpendicular_simples(q0, d0)
    if not simples:
        return VERDICT_LFD
    mults = multiplicity_vector(q0, d0, [weight_of_schofield(q0, e) for e in simples])
    return VERDICT_LFD if all(a == 1 for a in mults) else VERDICT_NOT_REDUCED


def census(name: str) -> Counter:
    """Verdict counts over the positive roots of builtin ``name``; raises
    AssertionError at the first verdict that is not the prediction."""
    q, _ = builtin(name)
    counts = Counter()
    for d in positive_roots(q):
        verdict = certify(q, d).verdict
        expected = predicted_verdict(q, d)
        assert verdict == expected, (name, d, verdict, expected)
        counts[verdict] += 1
    return counts


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(arg, dict(census(arg)))
