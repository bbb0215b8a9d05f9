"""Each test starts from an empty table of parametrized cells.

`ParamCell` hands out one object per parametrization for the life of the
process, with the readings it has derived.  A test that counts derived
readings, or that reads a cell's table, would otherwise see the cells and
readings that earlier tests left behind.
"""

from collections import OrderedDict

import pytest

from cantorg import pipeline


@pytest.fixture(autouse=True)
def fresh_cell_table(monkeypatch):
    monkeypatch.setattr(pipeline, "_CELLS", OrderedDict())
