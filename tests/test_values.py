"""The contract of the package's value types: each is built from the same
keyword arguments as its constructor's parameters, shows as its
constructor call (an int too long to print by its length), compares and
hashes by its fields and only with its own class, cannot be changed, and
survives copying and pickling."""

import copy
import pickle

import pytest

from dyckfrieze import Cycle, Diamond, DyckPath, FriezePattern, Triangulation
from dyckfrieze.checks import CheckResult

HUGE = 10**5000  # past the 4,300 digits Python's str will print

SQUARE_ROWS = ((0, 0, 0, 0), (1, 1, 1, 1), (1, 2, 1, 2), (1, 1, 1, 1), (0, 0, 0, 0))

# (type, constructor arguments by keyword, repr)
VALUES = [
    (
        Diamond,
        {"col1": (1, 2, 3), "col2": (3, 5, 2)},
        "Diamond(col1=(1, 2, 3), col2=(3, 5, 2))",
    ),
    (
        Cycle,
        {"diamonds": (Diamond((1,), (2,)), Diamond((2,), (1,)))},
        "Cycle(diamonds=(Diamond(col1=(1,), col2=(2,)), "
        "Diamond(col1=(2,), col2=(1,))))",
    ),
    (DyckPath, {"word": "UUDD"}, "DyckPath(word='UUDD')"),
    (
        FriezePattern,
        {"order": 4, "rows": SQUARE_ROWS},
        "FriezePattern(order=4, rows=((0, 0, 0, 0), (1, 1, 1, 1), (1, 2, 1, 2), "
        "(1, 1, 1, 1), (0, 0, 0, 0)))",
    ),
    (
        Triangulation,
        {"polygon_size": 4, "diagonals": frozenset({(0, 2)})},
        "Triangulation(polygon_size=4, diagonals=frozenset({(0, 2)}))",
    ),
    (
        CheckResult,
        {"name": "counts", "passed": True, "detail": "5 of 5"},
        "CheckResult(name='counts', passed=True, detail='5 of 5')",
    ),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle-{protocol}": lambda x, protocol=protocol: pickle.loads(
            pickle.dumps(x, protocol)
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_repr_is_the_constructor_call(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


def test_repr_shows_an_int_too_long_to_print_by_its_length():
    rows = ((0,) * 3, (1,) * 3, (HUGE,) * 3, (0,) * 3)
    assert repr(FriezePattern(3, rows)) == "FriezePattern(order=3, rows=<tuple>)"
    diamond = Diamond._trusted((HUGE,), (1,))
    assert repr(diamond) == "Diamond(col1=<tuple>, col2=(1,))"
    assert repr(Cycle._trusted((diamond,))) == (
        "Cycle(diamonds=(Diamond(col1=<tuple>, col2=(1,)),))"
    )
    assert repr(Triangulation._trusted(HUGE, frozenset())) == (
        "Triangulation(polygon_size=<5001 digits>, diagonals=frozenset())"
    )


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, text):
    assert cls(**kwargs) == cls(*kwargs.values())


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("counts", False) == CheckResult("counts", False, detail="")
    assert CheckResult("counts", False).detail == ""


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_equal_values_hash_equal(cls, kwargs, text):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, kwargs, text):
    # set orders, and so every output, depend on these values
    fields = tuple(kwargs.values())
    assert hash(cls(**kwargs)) == hash(fields[0] if len(fields) == 1 else fields)


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_values_equal_only_values_of_their_own_class(cls, kwargs, text):
    value = cls(**kwargs)
    fields = tuple(kwargs.values())
    assert (value == fields) is False
    assert (fields == value) is False
    assert value != fields
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert (value == subclass(**kwargs)) is False
    assert (subclass(**kwargs) == value) is False
    for other_cls, other_kwargs, _ in VALUES:
        if other_cls is not cls:
            assert value != other_cls(**other_kwargs)


@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_values_cannot_be_changed(cls, kwargs, text):
    value = cls(**kwargs)
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**kwargs)
    assert repr(value) == text


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
@pytest.mark.parametrize("cls, kwargs, text", VALUES, ids=IDS)
def test_copy_and_pickle_give_an_equal_value(cls, kwargs, text, round_trip):
    value = cls(**kwargs)
    again = round_trip(value)
    assert type(again) is cls
    assert again == value
    assert hash(again) == hash(value)
    assert repr(again) == text


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
def test_dyck_path_keeps_its_profile_through_copy_and_pickle(round_trip):
    path = DyckPath("UUDUDD")
    assert round_trip(path)._m == path._m == (2, 3, 3)
