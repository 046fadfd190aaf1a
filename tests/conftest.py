"""Fixtures shared across the test tree."""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant


@pytest.fixture
def built(monkeypatch):
    """Every ``Atom`` and ``Constant`` constructed while the test runs,
    as ``{Atom: [...], Constant: [...]}`` in construction order."""
    constructed = {Atom: [], Constant: []}
    for cls, instances in constructed.items():
        construct = cls.__init__

        def logged(self, *args, _construct=construct, _instances=instances):
            _construct(self, *args)
            _instances.append(self)

        monkeypatch.setattr(cls, "__init__", logged)
    return constructed
