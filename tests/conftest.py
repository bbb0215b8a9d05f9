"""Each test starts from an empty table of parametrized cells and an
empty table of quotients.

`ParamCell` hands out one object per parametrization for the life of the
process, with the readings it has derived, and `_criterion_cell` keeps the
quotients it computed.  A test that counts derived readings, or that reads
either table, would otherwise see what earlier tests left behind.
"""

from collections import OrderedDict

import pytest

from cantorg import pipeline


@pytest.fixture(autouse=True)
def fresh_cell_table(monkeypatch):
    monkeypatch.setattr(pipeline, "_CELLS", OrderedDict())
    monkeypatch.setattr(pipeline, "_QUOTIENTS", OrderedDict())
