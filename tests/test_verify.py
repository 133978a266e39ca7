import time

import pytest

from chamberflow.errors import BudgetExceeded
from chamberflow.verify import MAX_TRIES_PER_SAMPLE, suite_loxodromy


def test_loxodromy_suite_gives_up_where_no_draw_passes():
    # at n = 6 no random draw passes the suite's filters, so without a try
    # budget this call would never return
    start = time.monotonic()
    with pytest.raises(BudgetExceeded) as exc:
        suite_loxodromy(0, n=6, count=1)
    assert time.monotonic() - start < 30.0
    message = str(exc.value)
    assert message.startswith("loxodromy:")
    assert f"0 of 1 samples accepted in {MAX_TRIES_PER_SAMPLE} tries" in message
