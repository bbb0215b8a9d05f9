"""Each test starts from empty memos of parametrized cells and of
quotients.

`ParamCell` hands out one object per parametrization for the life of the
process, with the readings it has derived, and `_criterion_cell` reads the
quotients that `_quotient_cones` keeps.  A test that counts derived
readings, or that reads either memo, would otherwise see what earlier tests
left behind.
"""

import pytest

from cantorg import pipeline


@pytest.fixture(autouse=True)
def fresh_cell_memos():
    pipeline._cell.cache_clear()
    pipeline._quotient_cones.cache_clear()
