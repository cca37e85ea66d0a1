"""The value types are named tuples, plus VertexSet; each is rebuilt through its constructor on every path."""
import copy
import enum
import pickle

import numpy as np
import pytest

from kdom import (
    Box,
    DomainError,
    GridDims,
    Radius,
    SetFileError,
    VertexSet,
    base_set,
    construct,
    exact_gamma,
    inverse_image_in_box,
    remove_corners,
    verify_domination,
)
from kdom.cli import SetFile, load_setfile
from kdom.lattice import COORD_LIMIT


def _values():
    dims, k = GridDims(27, 27), Radius(2)
    points, trace = construct(dims, k)
    return [
        dims,
        k,
        Box(-2, 2, -1, 3),
        verify_domination(dims, k, points),
        trace.corner_cases[0],
        exact_gamma(GridDims(3, 4), Radius(1)),
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
    (SetFile(1, 3, 3, VertexSet.empty()), "k", True, SetFileError),
    (SetFile(1, 3, 3, VertexSet.empty()), "m", np.int64(3), SetFileError),
    (Box(0, 3, 0, 3), "i_hi", -1, DomainError),
    (SetFile(1, 3, 3, VertexSet.empty()), "flags", ("mystery",), SetFileError),
    (SetFile(1, 3, 3, VertexSet.empty()), "k", 0, SetFileError),
    (SetFile(1, 3, 3, VertexSet.from_iterable([(2, 0)]), ("projected",)), "m", 2, SetFileError),
    (GridDims(3, 4), "m", 2 ** 31 + 1, DomainError),
    (Radius(2), "k", 2.0, DomainError),
    (SetFile(1, 3, 3, VertexSet.empty()), "n", 1.5, SetFileError),
    (Box(0, 3, 0, 3), "i_hi", 2 ** 31, DomainError),
    (Box(0, 3, 0, 3), "j_lo", -(2 ** 62), DomainError),
    (SetFile(1, 3, 3, VertexSet.empty()), "points", [(0, 0)], SetFileError),
    (SetFile(1, 3, 3, VertexSet.empty()), "flags", "projected", SetFileError),
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


@pytest.mark.parametrize("points", [[(1, -2), (0, 5)], [(COORD_LIMIT - 1, 0), (1 - COORD_LIMIT, 1)]],
                         ids=["int64", "limit"])
def test_vertex_set_copies_and_unpickles_read_only(points):
    # a copy goes through the constructor, so a caller cannot break its order and hash
    vs = VertexSet.from_iterable(points)
    copies = [pickle.loads(pickle.dumps(vs, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.copy(vs), copy.deepcopy(vs)]:
        assert type(back) is VertexSet and back == vs and hash(back) == hash(vs)
        assert not back.array.flags.writeable
        with pytest.raises(ValueError):
            back.array[0, 0] = 99


def _library_sets():
    dims, k = GridDims(27, 27), Radius(2)
    built, trace = construct(dims, k)
    return [
        VertexSet.empty(),
        VertexSet.from_iterable([]),
        VertexSet.from_iterable([(3, -1), (COORD_LIMIT - 1, 2)]),
        inverse_image_in_box(k, 5, Box(1 - COORD_LIMIT, 60 - COORD_LIMIT, -7, 40)),
        load_setfile("kdom v1\n2 5 5 2\n4 4\n0 1\n").points,
        load_setfile("kdom v1\n2 5 5 2\n+4 4\n0 1\n").points,  # the line-by-line reader
        built,
        trace.removed,
        construct(GridDims(6, 6), Radius(3))[0],
        verify_domination(dims, k, VertexSet.from_iterable([(13, 13)])).uncovered,
        verify_domination(dims, k, built).uncovered,
        exact_gamma(GridDims(3, 4), Radius(1)).witness,
        exact_gamma(GridDims(4, 3), Radius(1)).witness,
        base_set(dims, k, 3),
    ]


def test_every_vertex_set_the_library_builds_is_int64():
    # one representation: __hash__ hashes the array's bytes, which only int64 rows make canonical
    sets = _library_sets()
    assert [(vs.array.dtype, vs.array.ndim) for vs in sets] == [(np.int64, 2)] * len(sets)
    # the constructor refuses any other dtype, since __hash__ hashes the array's bytes
    for dtype in (np.int32, np.uint64, object):
        with pytest.raises(DomainError, match=f"int64 array, got {np.dtype(dtype)}"):
            VertexSet(np.array([[1, 2]], dtype=dtype))
    # nor an int64 array of any shape but (N, 2) rows
    for shape in ((4,), (3, 3), (2, 2, 1)):
        with pytest.raises(DomainError) as refused:
            VertexSet(np.zeros(shape, dtype=np.int64))
        assert str(refused.value) == f"a vertex set is an (N, 2) array of (i, j) rows, got shape {shape}"


def test_every_vertex_set_the_library_builds_iterates_as_pairs_of_ints():
    # a point is a plain (i, j) tuple of Python ints, however the set was built
    for vs in _library_sets():
        points = list(vs)
        assert {(type(q), len(q)) for q in points} <= {(tuple, 2)}
        assert {type(c) for q in points for c in q} <= {int}
        assert points == [tuple(row) for row in vs.array.tolist()]
    vs = VertexSet.from_iterable([(3, 1), (0, 2)])
    assert (3, 1) in vs and (1, 3) not in vs


class _Small(enum.IntEnum):
    THREE = 3
    FIVE = 5


@pytest.mark.parametrize("make, fields, error, message", [
    (GridDims, (3, 5), DomainError, "grid dims must be integers"),
    (Radius, (3,), DomainError, "k must be an integer"),
    (Box, (3, 5, 3, 5), DomainError, "box bounds must be integers"),
    (SetFile, (3, 5, 5, VertexSet.empty()), SetFileError, "header values must be integers"),
], ids=lambda x: x.__name__ if isinstance(x, type) and not issubclass(x, Exception) else None)
def test_integer_fields_take_int_subclasses_but_not_bool_or_numpy_ints(make, fields, error, message):
    # the int fast path of integers() must give the answers of its isinstance path
    members = [_Small(v) if type(v) is int else v for v in fields]
    assert make(*members) == make(*fields) and type(make(*members)[0]) is _Small
    for bad in (True, np.int64(fields[0])):
        with pytest.raises(error, match=message):
            make(bad, *fields[1:])


def _remove_corners(ell):
    dims, k = GridDims(27, 27), Radius(2)
    return remove_corners(dims, k, ell, base_set(dims, k, 3))


@pytest.mark.parametrize("enter", [
    lambda ell: inverse_image_in_box(Radius(2), ell, Box(-2, 28, -2, 28)),
    lambda ell: base_set(GridDims(27, 27), Radius(2), ell),
    _remove_corners,
], ids=["inverse_image_in_box", "base_set", "remove_corners"])
def test_a_residue_is_an_int_in_range_wherever_it_enters(enter):
    # one check, in inverse_image_in_box, refuses each value with one message, before anything else runs
    assert enter(_Small.THREE) == enter(3)
    for bad in (-1, 13, 2.0, True, np.int64(2)):
        with pytest.raises(DomainError) as refused:
            enter(bad)
        assert str(refused.value) == f"residues mod p=13 must be integers in [0, 12], got {bad!r}"
