"""Each test starts from empty memos of parametrized cells, of
quotients and of edge verdicts.

`ParamCell` hands out one object per parametrization for the life of the
process, with the readings it has derived, and `_criterion_cell` reads the
quotients that `_quotient_cones` keeps.  `complexes.quotient` and
`is_one_cell` keep their answers per pair of words.  A test that counts
derived readings or rewriting work, or that reads any of these memos,
would otherwise see what earlier tests left behind.
"""

import pytest

from cantorg import complexes, pipeline


@pytest.fixture(autouse=True)
def fresh_cell_memos():
    pipeline._cell.cache_clear()
    pipeline._quotient_cones.cache_clear()
    complexes._quotient.cache_clear()
    complexes.is_one_cell.cache_clear()
