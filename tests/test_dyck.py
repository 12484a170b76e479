import itertools
import random
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckfrieze import (
    DyckPath,
    Triangulation,
    all_paths,
    catalan,
    cycle_paths,
    enumerate_all,
    from_v_vector,
    parse_path,
    path_rank,
    path_to_triangulation,
    path_to_vector,
    peaks,
    quiddity,
    realize,
    reduce_coordinate,
    support,
    to_lambda,
    to_v_vector,
    unitary_shift,
    vector_to_path,
    vector_to_triangulation,
)
from dyckfrieze import checks, dyck
from dyckfrieze.diamond import diagonal
from dyckfrieze.dyck import _ballot_rows, _ballot_term
from dyckfrieze.errors import (
    BadSymbol,
    IndexOutOfRange,
    InputError,
    InvalidVG,
    InvariantViolation,
    NotBalanced,
    PrefixViolation,
    TooShort,
)
from oracles import (
    brute_paths,
    catalan_by_convolution,
    frieze_rows_by_division,
    lambda_by_walk,
    path_rank_by_walk,
    path_to_vector_by_table,
    profile_by_coordinate,
    quiddity_by_faces,
    random_triangulation_diagonals,
    reduce_coordinate_by_scan,
    reduce_coordinate_stepwise,
    triangulation_key,
    v_vector_by_walk,
    vector_to_path_by_v_vector,
)

PATH18 = "UUUUUDDDUDUUUDDDDD"
PATH18_PROFILE = (5, 4, 3, 3, 5, 4, 3, 2)
PATH18_DESCENTS = (4, 4, 4, 3, 0, 0, 0, 0)


@st.composite
def dyck_words(draw, max_half=8, min_half=1):
    """Dyck words whose free steps are the bits of uniformly drawn bytes: bit
    j set takes a U at step j wherever both steps are legal."""
    n = draw(st.integers(min_value=min_half, max_value=max_half))
    size = (2 * n + 7) // 8
    bits = int.from_bytes(draw(st.binary(min_size=size, max_size=size)), "little")
    out = []
    ups = height = 0
    for j in range(2 * n):
        if ups < n and (height == 0 or bits >> j & 1):
            ups += 1
            height += 1
            out.append("U")
        else:
            height -= 1
            out.append("D")
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
    for word in (["U", "D"], 5, None):
        with pytest.raises(InputError):
            DyckPath(word)


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


def _assert_profile_reads_match_walks(p):
    assert to_v_vector(p) == v_vector_by_walk(p.word)
    assert path_rank(p) == path_rank_by_walk(p.word)
    if p.half_length >= 2:
        assert to_lambda(p) == lambda_by_walk(p.word)


def test_profile_reads_match_word_walks_exhaustive():
    for k in range(0, 11):
        for p in all_paths(k):
            _assert_profile_reads_match_walks(p)


@given(dyck_words(max_half=100, min_half=0))
@settings(max_examples=200)
def test_profile_reads_match_word_walks_property(p):
    _assert_profile_reads_match_walks(p)


def test_profile_is_not_part_of_the_value():
    p = DyckPath("UUDD")
    assert p == DyckPath("UUDD") == parse_path("uudd")
    assert p != DyckPath("UDUD")
    assert hash(p) == hash(DyckPath("UUDD"))
    assert repr(p) == "DyckPath(word='UUDD')"


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


def _vectors_up_to(top, length):
    for k in range(1, length + 1):
        yield from itertools.product(range(1, top + 1), repeat=k)


def test_one_pass_reduction_matches_per_coordinate_scan_exhaustive():
    # every vector over {1..5} of length at most 6
    for u in _vectors_up_to(5, 6):
        expected = [reduce_coordinate_by_scan(u, i) for i in range(1, len(u) + 1)]
        assert dyck._reduced(u) == expected


@given(
    st.lists(st.integers(1, 9) | st.integers(1, 10**30), min_size=1, max_size=40)
)
@settings(max_examples=100)
def test_reduce_coordinate_matches_per_coordinate_scan_property(u):
    for i in range(1, len(u) + 1):
        assert reduce_coordinate(u, i) == reduce_coordinate_by_scan(u, i)


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


def test_walk_matches_the_public_chain_exhaustive():
    # the oracle's profile goes through from_v_vector's checks and its
    # descent encoding through realize's; the maps and the walk share
    # _profile_of's one check
    for n in range(1, 9):
        for v in enumerate_all(n):
            p = vector_to_path_by_v_vector(v)
            t = realize(to_lambda(p))
            assert dyck._profile_of(v) == profile_by_coordinate(v)
            assert vector_to_path(v) == p
            assert vector_to_triangulation(v) == t
            m, key, q = checks._walk(v)
            assert tuple(m) == p._m
            assert key == triangulation_key(t.diagonals, n + 3)
            assert q == quiddity(t)


def test_ballot_rows_rank_every_path():
    # the table the sweep ranks by, against all_paths order and path_rank
    for k in range(10):
        rows = _ballot_rows(k)
        for r, p in enumerate(all_paths(k)):
            assert sum(map(getitem, rows, p._m)) == path_rank(p) == r


@given(st.integers(4, 60), st.randoms(use_true_random=False))
@example(402, random.Random(9))  # this draw has a diameter
@example(403, random.Random(0))  # an odd N has none
@settings(max_examples=200)
def test_walk_matches_word_walks_property(N, rng):
    # the column-0 frieze diagonal of t's quiddity is the vector whose path
    # realizes t; the walk needs no table, so it runs at any N, and the
    # profile's rank is summed from the terms the sweep's table holds
    t = Triangulation(N, random_triangulation_diagonals(N, rng))
    q = quiddity_by_faces(t)
    v = diagonal(q, 0, N - 1)[2:]
    p = vector_to_path_by_v_vector(v)
    assert vector_to_path(v) == p
    assert vector_to_triangulation(v) == realize(lambda_by_walk(p.word)) == t
    m, key, walked_q = checks._walk(v)
    assert tuple(m) == p._m
    rank = sum(_ballot_term(N - 2, i, mi) for i, mi in enumerate(m))
    assert rank == path_rank_by_walk(p.word)
    assert key == triangulation_key(t.diagonals, N)
    assert walked_q == q


def test_path_maps_match_the_realize_route_exhaustive():
    # both clip the descent encoding of a validated path without realize's
    # checks; the route through realize checks it
    for k in range(2, 10):
        for p in all_paths(k):
            t = realize(to_lambda(p))
            assert path_to_triangulation(p) == t
            assert path_to_vector(p, k - 1) == diagonal(quiddity(t), 0, k + 1)[2:]


def test_a_failed_path_map_theorem_is_an_invariant_violation(monkeypatch):
    # the profile is the package's own, so a bad one is not the caller's fault
    monkeypatch.setattr(dyck, "_reduced", lambda u: [0] * len(u))
    for path_map in (vector_to_path, vector_to_triangulation, cycle_paths):
        with pytest.raises(InvariantViolation, match="encodes no Dyck path"):
            path_map((2, 1))


def test_walk_refuses_a_decreasing_profile():
    # reduced coordinates 3, 1 give the profile 3, 2, 3
    with pytest.raises(InvariantViolation, match="encodes no Dyck path"):
        checks._walk((3, 1))
