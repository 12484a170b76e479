import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckfrieze import (
    DyckPath,
    all_paths,
    catalan,
    enumerate_all,
    from_v_vector,
    parse_path,
    path_rank,
    path_to_triangulation,
    path_to_vector,
    peaks,
    reduce_coordinate,
    support,
    to_lambda,
    to_v_vector,
    unitary_shift,
    vector_to_path,
    vector_to_triangulation,
)
from dyckfrieze.errors import (
    BadSymbol,
    IndexOutOfRange,
    InputError,
    InvalidVG,
    NotBalanced,
    PrefixViolation,
    TooShort,
)
from oracles import (
    brute_paths,
    catalan_by_convolution,
    frieze_rows_by_division,
    path_to_vector_by_table,
    quiddity_by_faces,
    reduce_coordinate_stepwise,
)

PATH18 = "UUUUUDDDUDUUUDDDDD"
PATH18_PROFILE = (5, 4, 3, 3, 5, 4, 3, 2)
PATH18_DESCENTS = (4, 4, 4, 3, 0, 0, 0, 0)


@st.composite
def dyck_words(draw, max_half=8):
    n = draw(st.integers(min_value=1, max_value=max_half))
    ups, downs, height = n, n, 0
    out = []
    while ups or downs:
        if ups and downs and height > 0:
            step = draw(st.sampled_from("UD"))
        elif ups:
            step = "U"
        else:
            step = "D"
        if step == "U":
            ups -= 1
            height += 1
        else:
            downs -= 1
            height -= 1
        out.append(step)
    return DyckPath("".join(out))


def test_parse_valid_words():
    assert parse_path("UDUDUUDD").half_length == 4
    assert parse_path("UD").half_length == 1
    assert parse_path("uudd").word == "UUDD"
    assert parse_path("").half_length == 0


def test_parse_prefix_violation_position():
    with pytest.raises(PrefixViolation) as info:
        parse_path("UDDU")
    assert info.value.position == 3


def test_parse_bad_symbol_and_imbalance():
    with pytest.raises(BadSymbol) as info:
        parse_path("UXDD")
    assert info.value.position == 2
    with pytest.raises(NotBalanced):
        parse_path("UUD")


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(9) == 4862
    for n in range(0, 11):
        assert catalan(n) == catalan_by_convolution(n)
    with pytest.raises(InputError):
        catalan(-1)


def test_all_paths_matches_brute_force():
    for n in range(0, 8):
        lib = [p.word for p in all_paths(n)]
        assert sorted(lib) == sorted(brute_paths(n))
        assert len(lib) == catalan(n)
        # lexicographic with U before D
        key = lambda w: [0 if ch == "U" else 1 for ch in w]
        assert lib == sorted(lib, key=key)


def test_all_paths_first_path_at_half_length_1000():
    assert next(all_paths(1000)).word == "U" * 1000 + "D" * 1000


def test_path_counts_up_to_ten():
    for n in range(8, 11):
        assert sum(1 for _ in all_paths(n)) == catalan(n)


def test_path_rank_is_all_paths_order():
    for k in range(0, 10):
        assert [path_rank(p) for p in all_paths(k)] == list(range(catalan(k)))
    # first and last word in U < D order, past any float or machine width
    assert path_rank("U" * 1000 + "D" * 1000) == 0
    assert path_rank("UD" * 1000) == catalan(1000) - 1


def test_path_rank_rejects_non_dyck_words():
    assert path_rank("UUDUDD") == path_rank(parse_path("UUDUDD"))
    with pytest.raises(PrefixViolation):
        path_rank("UDDU")
    with pytest.raises(NotBalanced):
        path_rank("UUD")
    with pytest.raises(BadSymbol):
        path_rank("UXDD")


def test_peaks():
    assert peaks(parse_path("UDUDUD")) == 3
    assert peaks(parse_path("UUUDDD")) == 1
    two_peak = [p for p in all_paths(3) if peaks(p) == 2]
    assert len(two_peak) == 3


def test_support():
    assert support(parse_path("UUDD")) == {1}
    assert support(parse_path("UDUDUD")) == set()
    assert support(parse_path("UUDUDD")) == {1, 2}
    with pytest.raises(TooShort):
        support(parse_path("UD"))


def test_unitary_shift_known():
    assert unitary_shift(parse_path("UUDD"), 1).word == "UDUD"
    assert unitary_shift(parse_path("UDUDUD"), 1).word == "UUDDUD"


def test_unitary_shift_involution_exhaustive():
    for n in range(2, 7):
        for p in all_paths(n):
            for i in range(1, n):
                assert unitary_shift(unitary_shift(p, i), i) == p


def test_unitary_shift_bad_index():
    with pytest.raises(IndexOutOfRange):
        unitary_shift(parse_path("UUDD"), 2)
    with pytest.raises(IndexOutOfRange):
        unitary_shift(parse_path("UUDD"), 0)


def test_v_vector_known():
    p = from_v_vector(PATH18_PROFILE)
    assert p.word == PATH18
    assert to_v_vector(p) == PATH18_PROFILE
    assert to_v_vector(parse_path("UDUD")) == (1,)
    assert from_v_vector(()).word == "UD"


def test_v_vector_roundtrip_exhaustive():
    for k in range(1, 7):
        for p in all_paths(k):
            assert from_v_vector(to_v_vector(p)) == p


def test_from_v_vector_rejects_bad_profiles():
    with pytest.raises(InvalidVG):
        from_v_vector((0,))
    with pytest.raises(InvalidVG):
        from_v_vector((1, 5))  # U-count exceeds half length
    with pytest.raises(InvalidVG):
        from_v_vector((3, 1))  # profile decreases


def test_lambda_known():
    assert to_lambda(from_v_vector(PATH18_PROFILE)) == PATH18_DESCENTS
    assert to_lambda(parse_path("UDUDUUDD")) == (2, 2, 1)
    assert to_lambda(parse_path("UUUUDDDD")) == (0, 0, 0)
    with pytest.raises(TooShort):
        to_lambda(parse_path("UD"))


def test_lambda_monotone_and_bounded():
    for k in range(2, 8):
        n = k - 1
        for p in all_paths(k):
            lam = to_lambda(p)
            assert len(lam) == n
            assert all(lam[i] >= lam[i + 1] for i in range(n - 1))
            assert all(0 <= x <= n + 1 for x in lam)


def test_reduce_coordinate_worked_example():
    u = (14, 52, 4, 23, 9, 2)
    assert tuple(reduce_coordinate(u, i) for i in range(1, 7)) == (14, 13, 4, 8, 3, 2)


def test_reduce_coordinate_flat_and_mixed():
    assert tuple(reduce_coordinate((1, 1, 1), i) for i in range(1, 4)) == (1, 1, 1)
    u = (2, 3, 4, 1, 1)
    assert tuple(reduce_coordinate(u, i) for i in range(1, 6)) == (2, 2, 2, 1, 1)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=7), st.data())
@settings(max_examples=300)
def test_reduce_coordinate_matches_stepwise_oracle(u, data):
    i = data.draw(st.integers(min_value=1, max_value=len(u)))
    assert reduce_coordinate(u, i) == reduce_coordinate_stepwise(u, i)


def test_reduce_coordinate_huge_entries_return_at_once():
    assert reduce_coordinate((1, 10**12), 2) == 10**12
    assert reduce_coordinate((7, 5, 10**12), 3) == 5 + (10**12 - 5) // 5


def test_reduce_coordinate_errors():
    with pytest.raises(IndexOutOfRange):
        reduce_coordinate((1, 2), 3)
    with pytest.raises(InputError):
        reduce_coordinate((1, 0), 1)


@pytest.mark.parametrize(
    "u, i",
    [
        (("a", 1), 1),
        ((1.5, 2), 2),
        ((True, 2), 2),
        ((), 1),
        ((1, 2), 1.0),
        ((1, 2), True),
    ],
)
def test_reduce_coordinate_rejects_non_integers(u, i):
    with pytest.raises(InputError):
        reduce_coordinate(u, i)


def test_vector_to_path_known():
    assert vector_to_path((2, 3, 4, 1)).word == "UUDUDUDDUD"
    assert vector_to_path((1,)).word == "UDUD"
    assert vector_to_path((2,)).word == "UUDD"
    for n in range(1, 7):
        assert vector_to_path((1,) * n).word == "UD" * (n + 1)


def test_path_to_vector_known():
    assert path_to_vector(parse_path("UUDUDUDDUD"), 4) == (2, 3, 4, 1)
    assert path_to_vector(parse_path("UDUDUD"), 2) == (1, 1)
    with pytest.raises(InputError):
        path_to_vector(parse_path("UDUD"), 4)


def test_path_map_roundtrip_exhaustive():
    for n in range(1, 7):
        for v in enumerate_all(n):
            assert path_to_vector(vector_to_path(v), n) == v


def test_vector_maps_reject_non_diamond_vectors():
    for bad in [(2, 2), (1, 0, 1)]:
        with pytest.raises(InputError):
            vector_to_path(bad)
        with pytest.raises(InputError):
            vector_to_triangulation(bad)


@given(dyck_words())
@settings(max_examples=200)
def test_path_to_vector_matches_table_oracle(p):
    n = p.half_length - 1
    if n < 1:
        return
    assert path_to_vector(p, n) == path_to_vector_by_table(p, n)


@given(dyck_words(max_half=58))
@settings(max_examples=100)
def test_path_to_vector_past_enumeration_cap(p):
    # the preimage maps back to p, and it is column 0 of the frieze of the
    # path's triangulation, completed by division
    n = p.half_length - 1
    if n < 1:
        return
    v = path_to_vector(p, n)
    assert vector_to_path(v) == p
    rows = frieze_rows_by_division(quiddity_by_faces(path_to_triangulation(p)))
    assert v == tuple(rows[r][0] for r in range(2, n + 2))


@given(dyck_words())
@settings(max_examples=200)
def test_parse_roundtrip_property(p):
    assert parse_path(str(p)) == p


@given(dyck_words(), st.data())
@settings(max_examples=200)
def test_shift_involution_property(p, data):
    n = p.half_length
    if n < 2:
        return
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert unitary_shift(unitary_shift(p, i), i) == p


@given(dyck_words())
@settings(max_examples=200)
def test_v_vector_roundtrip_property(p):
    assert from_v_vector(to_v_vector(p)) == p
