"""The value types are named tuples, plus VertexSet; each is rebuilt through its constructor on every path."""
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
        trace,
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_are_tuples_that_survive_pickle_and_copy(value):
    assert isinstance(value, tuple)
    assert value == tuple(value) and value._make(value) == value
    assert value._replace() == value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
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
    (GridDims(3, 4), "m", 2 ** 31 + 1, DomainError),
    (Radius(2), "k", 2.0, DomainError),
    (Residue(0, 13), "modulus", 0, DomainError),
    (Box(0, 3, 0, 3), "i_hi", 2 ** 31, DomainError),
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
                  *(lambda p=p: pickle.loads(pickle.dumps(forged, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
                  lambda: copy.copy(forged)):
        with pytest.raises(error) as built:
            build()
        assert str(built.value) == message


@pytest.mark.parametrize("points", [[(1, -2), (0, 5)], [(2 ** 63, 0), (-(10 ** 30), 1)]],
                         ids=["int64", "object"])
def test_vertex_set_copies_and_unpickles_read_only(points):
    # a copy goes through the constructor, so a caller cannot break its order and hash
    vs = VertexSet.from_iterable(points)
    copies = [pickle.loads(pickle.dumps(vs, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.copy(vs), copy.deepcopy(vs)]:
        assert type(back) is VertexSet and back == vs and hash(back) == hash(vs)
        assert not back.array.flags.writeable
        with pytest.raises(ValueError):
            back.array[0, 0] = 99
