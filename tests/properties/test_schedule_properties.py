"""Safety under schedules hypothesis draws, not under seeds we picked.

A schedule is a list of ints: delivery ``i`` is the pending envelope of
rank ``ranks[i] % len(pending)``, oldest first once the list runs out
(``scheduler="script"``).  Every int list is therefore a valid
schedule, so :data:`SCHEDULES` needs no filter and shrinks freely.
Import it to search schedules elsewhere.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scenario import Scenario, run

BYZANTINE_KINDS = ("silent", "two_faced", "fuzzer", "squat")

#: Rank lists: any ints, any length.
SCHEDULES = st.lists(st.integers())


@pytest.mark.parametrize("coin", ["local", "dealer"])
@pytest.mark.parametrize("kind", BYZANTINE_KINDS)
@given(ranks=SCHEDULES)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bracha_is_safe_under_any_schedule(kind, coin, ranks):
    """The checked harness raises on a violation — reaching the assert
    means agreement, validity, integrity and completion held."""
    result = run(Scenario(n=4, faults={3: kind}, coin=coin, scheduler="script",
                          scheduler_args={"ranks": ranks}))
    assert len(result.decided_values) == 1
