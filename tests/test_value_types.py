"""The value types are named tuples; the validated ones check every way they are built."""
import copy
import pickle

import pytest

from kdom import (
    Box,
    DomainError,
    GridDims,
    LatticePoint,
    Radius,
    Residue,
    SetFileError,
    VertexSet,
    comparison_table,
    construct,
    exact_gamma,
    verify_domination,
)
from kdom.cli import SetFile


def protocols(value):
    """Every pickle protocol, but from 2 on for a value holding a VertexSet (it has __slots__)."""
    return range(2 if any(isinstance(f, VertexSet) for f in value) else 0, pickle.HIGHEST_PROTOCOL + 1)


def _values():
    dims, k = GridDims(27, 27), Radius(2)
    points, trace = construct(dims, k)
    return [
        LatticePoint(1, -2),
        dims,
        k,
        Residue(3, 13),
        Box(-2, 2, -1, 3),
        verify_domination(dims, k, points),
        trace.corner_cases[0],
        exact_gamma(GridDims(3, 4), Radius(1)),
        comparison_table([(51, 52)], Radius(3), build=True)[0],
        SetFile(k=2, m=27, n=27, points=points, flags=("projected",)),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_are_tuples_that_survive_pickle_and_copy(value):
    assert isinstance(value, tuple)
    assert value == tuple(value) and value._make(value) == value
    assert value._replace() == value
    for protocol in protocols(value):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value


@pytest.mark.parametrize("good, field, bad, error", [
    (GridDims(3, 4), "m", 0, DomainError),
    (GridDims(3, 4), "n", 2.0, DomainError),
    (Radius(2), "k", 2001, DomainError),
    (Residue(3, 13), "value", 13, DomainError),
    (Residue(3, 13), "modulus", True, DomainError),
    (Box(0, 3, 0, 3), "i_hi", -1, DomainError),
    (SetFile(1, 3, 3, VertexSet.empty()), "flags", ("mystery",), SetFileError),
    (SetFile(1, 3, 3, VertexSet.empty()), "k", 0, SetFileError),
    (SetFile(1, 3, 3, VertexSet.from_iterable([(2, 0)]), ("projected",)), "m", 2, SetFileError),
], ids=lambda x: x if isinstance(x, str) else None)
def test_validated_types_reject_the_same_fields_on_every_path(good, field, bad, error):
    cls = type(good)
    fields = good._asdict() | {field: bad}
    with pytest.raises(error) as called:
        cls(**fields)
    message = str(called.value)
    forged = tuple.__new__(cls, fields.values())  # what namedtuple's own _make would build
    for build in (lambda: cls(*fields.values()),
                  lambda: cls._make(fields.values()),
                  lambda: good._replace(**{field: bad}),
                  *(lambda p=p: pickle.loads(pickle.dumps(forged, p)) for p in protocols(forged)),
                  lambda: copy.copy(forged)):
        with pytest.raises(error) as built:
            build()
        assert str(built.value) == message
