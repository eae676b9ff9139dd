import pytest

from abtqft.catalog import builtin_catalog
from abtqft.compare import cs_closed
from abtqft.numeric import polar_to_approx, sum_tolerance
from abtqft.surgery import rt_raw_closed


@pytest.mark.parametrize("k", [2, 4, 6, 8])
@pytest.mark.parametrize("name", ["S3", "S3_plus", "S3_minus", "S1xS2"])
def test_frozen_values_match_both_routes(name, k):
    entry = builtin_catalog()[name]
    want = polar_to_approx(entry.expected[k])
    p = entry.presentation
    tol = sum_tolerance(k ** p.m)
    assert abs(rt_raw_closed(p, k) - want) <= tol
    assert abs(cs_closed(p.surgery, k).value - want) <= tol
