import time

import pytest

from chamberflow.errors import BudgetExceeded
from chamberflow.linalg_core import Config
from chamberflow.verify import (
    MAX_TRIES_PER_SAMPLE,
    suite_bh,
    suite_cocycles,
    suite_decompositions,
    suite_loxodromy,
)


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


@pytest.mark.parametrize(
    "suite",
    [suite_decompositions, suite_cocycles, suite_bh, suite_loxodromy],
    ids=["decompositions", "cocycles", "bruhat-hopf", "loxodromy"],
)
def test_sampling_suites_give_up_when_no_pair_is_transverse(suite):
    # a pivot threshold of twice the largest entry puts every matrix outside
    # the big cell, so no flag is transverse and no draw can be accepted; a
    # suite that rejected the budget error of its own section sampler would
    # never return
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        suite(42, n=3, count=2, config=Config(tol_minor=2.0))
    assert time.monotonic() - start < 30.0
