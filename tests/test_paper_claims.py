"""The paper's claims as orderings of mean query times, at a third of full scale.

``tests/check_full_scale_digests.py`` checks the same orderings (its
``claim_failures``) at the scale the presets are reported at.  They hold at
``--scale 0.3`` too, where the three presets take under a second together.
At 0.2 the ``io_sweep`` means tie and the ``cache_sweep`` means do not fall,
so a smaller scale would not show the claims.
"""

import pytest
from check_full_scale_digests import claim_failures, run_preset


@pytest.mark.parametrize("name", ["io_sweep", "cpu_sweep", "cache_sweep"])
def test_the_papers_orderings_hold_at_scale_0_3(name):
    _digests, means = run_preset(name, 0.3)
    assert claim_failures(name, means) == []
