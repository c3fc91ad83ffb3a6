import pytest

from census import census


@pytest.mark.parametrize(
    "name, counts",
    [
        ("a8", {"linear-free-divisor": 36}),
        ("d8-prop", {"linear-free-divisor": 56}),
        ("e6-q1", {"linear-free-divisor": 36}),
        ("e7-highroot", {"linear-free-divisor": 63}),
    ],
)
def test_every_positive_root_certifies_as_the_euler_form_predicts(name, counts):
    # census asserts each verdict against the prediction from the
    # multiplicities; the counts pin how many roots reach each verdict
    assert census(name) == counts
