import itertools
from collections import Counter

import pytest

from dyckfrieze import (
    Cycle,
    FriezePattern,
    Triangulation,
    all_paths,
    ballot_count,
    catalan,
    check_head_form,
    companion_vector,
    complete_diamond,
    couple_next,
    cycle_heads,
    cycle_paths,
    enumerate_all,
    expand,
    from_cycle,
    from_quiddity,
    from_v_vector,
    minimal_cycle,
    parse_path,
    path_rank,
    path_to_vector,
    period,
    quiddity,
    realize,
    reduce_coordinate,
    render_ascii,
    rotate,
    rotation_orbit,
    same_rotation_orbit,
    seed_vector,
    to_json_dict,
    to_lambda,
    to_v_vector,
    triangles,
    unitary_shift,
    vector_to_path,
    vector_to_triangulation,
    verify,
    violations,
)
from dyckfrieze.checks import _walk
from dyckfrieze.errors import (
    IndexOutOfRange,
    InputError,
    LastEntryNotOne,
    NonPositiveEntry,
    RangeError,
)
from oracles import ballot_count_by_recursion, ear_move, triangulation_key

RANK3_VECTORS = [
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 3), (1, 3, 2), (2, 1, 1), (2, 1, 2),
    (2, 3, 1), (2, 3, 4), (2, 5, 3), (3, 2, 1), (3, 2, 3), (3, 5, 2), (4, 3, 2),
]

ORDER5 = from_quiddity((1, 2, 2, 1, 3))

BALLOT_TRIANGLE = {
    1: (1, 1),
    2: (1, 2, 2),
    3: (1, 3, 5, 5),
    4: (1, 4, 9, 14, 14),
    5: (1, 5, 14, 28, 42, 42),
    6: (1, 6, 20, 48, 90, 132, 132),
}


def test_seed_vectors_known():
    assert seed_vector(3, 1) == (1, 1, 1)
    assert seed_vector(3, 4) == (4, 3, 2)
    assert seed_vector(1, 1) == (1,)
    assert seed_vector(1, 2) == (2,)
    assert seed_vector(4, 3) == (3, 2, 1, 1)


def test_seed_vector_range():
    with pytest.raises(RangeError):
        seed_vector(3, 0)
    with pytest.raises(RangeError):
        seed_vector(3, 5)
    with pytest.raises(RangeError):
        seed_vector(0, 1)


def test_companion_vectors_known():
    assert companion_vector(4, 3) == (1, 1, 2, 3)
    assert companion_vector(1, 1) == (2,)
    assert complete_diamond(seed_vector(4, 3)).col2 == (1, 1, 2, 3)


def test_seed_companion_coupling():
    for n in range(1, 9):
        for z in range(1, n + 2):
            assert complete_diamond(seed_vector(n, z)).col2 == companion_vector(n, z)


def test_expand_known():
    assert expand((1, 2, 1), 2) == (1, 2, 3)
    assert expand((2, 3, 1), 1) == (2, 5, 3)
    assert expand((1, 1, 1), 1) == (1, 2, 1)


def test_expand_errors():
    with pytest.raises(LastEntryNotOne):
        expand((1, 2, 3), 1)
    with pytest.raises(IndexOutOfRange):
        expand((1, 1, 1), 0)
    with pytest.raises(IndexOutOfRange):
        expand((1, 1, 1), 3)
    with pytest.raises(NonPositiveEntry):
        expand((-3, 1), 1)


def test_expand_preserves_completability():
    for n in range(2, 7):
        for v in enumerate_all(n):
            if v[-1] != 1:
                continue
            for i in range(1, n):
                w = expand(v, i)
                d = complete_diamond(w)
                assert all(x >= 1 for x in d.col2)


def _diagonals_of_key(key, N):
    # bit e - 2 of block x, each block N // 2 - 1 bits wide, names the
    # diagonal from x to the vertex e steps on (``triangulation_key``); a
    # diameter sets a bit at both ends, so it is read twice
    diagonals = set()
    while key:
        bit = key & -key
        x, r = divmod(bit.bit_length() - 1, N // 2 - 1)  # r = e - 2
        diagonals.add(tuple(sorted((x, (x + r + 2) % N))))
        key ^= bit
    return sorted(diagonals)


def test_expansion_is_one_ear_move():
    # the walk of expand(v, i) is the walk of v with the ear at vertex N - 2,
    # v's trailing 1, cut and an ear glued on side (i, i + 1): every
    # expandable v and i at ranks 1..8, against a move made by hand
    for n in range(1, 9):
        N = n + 3
        for v in enumerate_all(n):
            if v[-1] != 1:
                continue
            _, key, q = _walk(v)
            diagonals = _diagonals_of_key(key, N)
            # the move carries a wrong entry of q along, so q is tied to the key
            degree = Counter(itertools.chain.from_iterable(diagonals))
            assert q == tuple(1 + degree[x] for x in range(N)), v
            for i in range(1, n):
                _, moved_key, moved_q = _walk(expand(v, i))
                q_by_hand, diagonals_by_hand = ear_move(q, diagonals, i)
                assert moved_q == q_by_hand, (v, i)
                assert moved_key == triangulation_key(diagonals_by_hand, N), (v, i)


def test_enumerate_smallest_ranks():
    assert enumerate_all(1) == ((1,), (2,))
    assert enumerate_all(3) == tuple(RANK3_VECTORS)
    assert len(enumerate_all(5)) == 132


def test_enumerate_sorted_and_counted():
    for n in range(1, 8):
        vs = enumerate_all(n)
        assert list(vs) == sorted(vs)
        assert len(vs) == catalan(n + 1)
        assert len(set(vs)) == len(vs)


@pytest.mark.parametrize("n", range(1, 9))
def test_path_map_reverses_the_enumeration_order(n):
    # checked, not proved: the vector at sorted position i maps to the path
    # of rank catalan(n + 1) - 1 - i, so the sorted vectors list the paths
    # in reverse all_paths order
    last = catalan(n + 1) - 1
    for i, v in enumerate(enumerate_all(n)):
        assert path_rank(vector_to_path(v)) == last - i, v


def test_ballot_base_cases():
    assert ballot_count(1, 1) == 1
    assert ballot_count(1, 2) == 1


def test_ballot_rank_three_row():
    row = tuple(ballot_count(3, z) for z in (4, 3, 2, 1))
    assert row == (1, 3, 5, 5)
    assert sum(row) == 14


def test_ballot_triangle_rows():
    for n, expected in BALLOT_TRIANGLE.items():
        assert tuple(ballot_count(n, z) for z in range(n + 1, 0, -1)) == expected


def test_ballot_row_sums_are_catalan():
    for n in range(1, 11):
        assert sum(ballot_count(n, z) for z in range(1, n + 2)) == catalan(n + 1)


def test_ballot_closed_form_matches_recursion():
    for n in range(1, 61):
        for z in range(1, n + 2):
            assert ballot_count(n, z) == ballot_count_by_recursion(n, z)


def test_ballot_count_at_large_ranks_needs_no_recursion():
    assert ballot_count(334, 1) == catalan(334)
    assert sum(ballot_count(1200, z) for z in range(1, 1202)) == catalan(1201)


def test_ballot_range():
    with pytest.raises(RangeError):
        ballot_count(3, 0)
    with pytest.raises(RangeError):
        ballot_count(3, 5)


# The cached functions are asked for the int first, so a cache that took
# 3.0 or True for 3 or 1 would answer without the check.
NON_INTEGER_CALLS = {
    "seed_vector(3, 1.5)": lambda: seed_vector(3, 1.5),
    "expand((), 1)": lambda: expand((), 1),
    "expand((2, 1), 1.0)": lambda: expand((2, 1), 1.0),
    "expand((1.5, 1), 1)": lambda: expand((1.5, 1), 1),
    "expand((True, 1), 1)": lambda: expand((True, 1), 1),
    "catalan(2.5)": lambda: catalan(2.5),
    "all_paths(2.5)": lambda: next(all_paths(2.5)),
    "ballot_count(3.0, 2)": lambda: (ballot_count(3, 2), ballot_count(3.0, 2)),
    "enumerate_all(2.0)": lambda: (enumerate_all(2), enumerate_all(2.0)),
    "enumerate_all(True)": lambda: (enumerate_all(1), enumerate_all(True)),
    "unitary_shift(p, 1.0)": lambda: unitary_shift(parse_path("UUDD"), 1.0),
    "path_to_vector(p, '1')": lambda: path_to_vector(parse_path("UDUD"), "1"),
    "path_to_vector(p, True)": lambda: path_to_vector(parse_path("UUDD"), True),
    "render_ascii(fp, 1.5)": lambda: render_ascii(from_quiddity((1, 2, 1, 2)), 1.5),
}


@pytest.mark.parametrize(
    "call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys()
)
def test_non_integer_parameters_raise_input_error(call):
    with pytest.raises(InputError):
        call()


# A wrong type is refused with InputError, never TypeError or AttributeError:
# a sequence argument that is not iterable, an unhashable argument of a
# cached function (checked before the cache is asked), and anything but a
# valid word where a DyckPath belongs, and anything but the Diamond, Cycle,
# Triangulation or FriezePattern an object-typed argument names.
WRONG_TYPE_CALLS = {
    "complete_diamond(5)": lambda: complete_diamond(5),
    "from_v_vector(5)": lambda: from_v_vector(5),
    "from_quiddity(5)": lambda: from_quiddity(5),
    "reduce_coordinate(5, 1)": lambda: reduce_coordinate(5, 1),
    "expand(5, 1)": lambda: expand(5, 1),
    "expand(('a', 1), 1)": lambda: expand(("a", 1), 1),
    "realize(None)": lambda: realize(None),
    "Triangulation(5, None)": lambda: Triangulation(5, None),
    "Cycle(5)": lambda: Cycle(5),
    "FriezePattern(3, (5, 6, 7, 8))": lambda: FriezePattern(3, (5, 6, 7, 8)),
    "ballot_count([1], 2)": lambda: ballot_count([1], 2),
    "enumerate_all([3])": lambda: enumerate_all([3]),
    "path_to_vector('UDDU', 1)": lambda: path_to_vector("UDDU", 1),
    "path_to_vector(None, 1)": lambda: path_to_vector(None, 1),
    "unitary_shift('UUDX', 1)": lambda: unitary_shift("UUDX", 1),
    "to_lambda(5)": lambda: to_lambda(5),
    "to_v_vector(['U', 'D'])": lambda: to_v_vector(["U", "D"]),
    "path_rank(10**5000)": lambda: path_rank(10**5000),
    "rotation_orbit(None)": lambda: rotation_orbit(None),
    "rotate(None, 1)": lambda: rotate(None, 1),
    "quiddity(None)": lambda: quiddity(None),
    "triangles(None)": lambda: triangles(None),
    "couple_next(None)": lambda: couple_next(None),
    "same_rotation_orbit(None, t)": lambda: same_rotation_orbit(None, realize((1,))),
    "same_rotation_orbit(t, None)": lambda: same_rotation_orbit(realize((1,)), None),
    "minimal_cycle(None)": lambda: minimal_cycle(None),
    "check_head_form(None)": lambda: check_head_form(None),
    "cycle_heads(None)": lambda: cycle_heads(None),
    "from_cycle(None)": lambda: from_cycle(None),
    "violations(None)": lambda: violations(None),
    "verify(None)": lambda: verify(None),
    "period(None)": lambda: period(None),
    "render_ascii(None)": lambda: render_ascii(None),
    "to_json_dict(None)": lambda: to_json_dict(None),
    "quiddity(diamond)": lambda: quiddity(complete_diamond((1,))),
    "FriezePattern(None, rows)": lambda: FriezePattern(None, ORDER5.rows),
    "FriezePattern(5.0, rows)": lambda: FriezePattern(5.0, ORDER5.rows),
    "Cycle((None,))": lambda: Cycle((None,)),
}


@pytest.mark.parametrize(
    "call", WRONG_TYPE_CALLS.values(), ids=WRONG_TYPE_CALLS.keys()
)
def test_wrong_types_raise_input_error(call):
    with pytest.raises(InputError):
        call()


# Python refuses str of an int past 4,300 digits, so a message that printed
# B itself would raise ValueError from inside the error.  B is never passed
# as a size that is valid: seed_vector(B, 1) would build a B-entry tuple.
# A half length of 10**19 prints, but its word would not fit in a str.
B = 10**5000


def _tampered_render():
    rows = [list(row) for row in ORDER5.rows]
    rows[2][1] = -B
    return render_ascii(FriezePattern(5, rows))


TOO_LONG_TO_PRINT_CALLS = {
    "seed_vector(2, B)": lambda: seed_vector(2, B),
    "companion_vector(2, -B)": lambda: companion_vector(2, -B),
    "ballot_count(2, B)": lambda: ballot_count(2, B),
    "enumerate_all(-B)": lambda: enumerate_all(-B),
    "expand((2, 1), B)": lambda: expand((2, 1), B),
    "expand((B, 2), 1)": lambda: expand((B, 2), 1),
    "unitary_shift('UUDD', B)": lambda: unitary_shift("UUDD", B),
    "reduce_coordinate((1,), B)": lambda: reduce_coordinate((1,), B),
    "path_to_vector('UUDD', B)": lambda: path_to_vector("UUDD", B),
    "from_v_vector((-B,))": lambda: from_v_vector((-B,)),
    "realize((-B,))": lambda: realize((-B,)),
    "realize((B,))": lambda: realize((B,)),
    "Triangulation(B, ())": lambda: Triangulation(B, ()),
    "Triangulation(5, ((0, B), (1, 3)))": lambda: Triangulation(5, ((0, B), (1, 3))),
    "Triangulation(5, ((0, B, 1), (1, 3)))": lambda: Triangulation(
        5, ((0, B, 1), (1, 3))
    ),
    "FriezePattern(B, ())": lambda: FriezePattern(B, ()),
    "all_paths(B)": lambda: next(all_paths(B)),
    "parse_path(B)": lambda: parse_path(B),
    "all_paths(10**19)": lambda: next(all_paths(10**19)),
    "catalan(10**19)": lambda: catalan(10**19),
    "catalan(10**5000)": lambda: catalan(10**5000),
    "ballot_count(10**19, 1)": lambda: ballot_count(10**19, 1),
    "ballot_count(10**5000, 1)": lambda: ballot_count(10**5000, 1),
    "render_ascii(entry -B)": _tampered_render,
}


@pytest.mark.parametrize(
    "call", TOO_LONG_TO_PRINT_CALLS.values(), ids=TOO_LONG_TO_PRINT_CALLS.keys()
)
def test_values_too_long_to_print_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_all_paths_starts_at_once_below_its_bound():
    assert next(all_paths(1000)).word == "U" * 1000 + "D" * 1000


def test_plain_words_are_validated_as_paths():
    p = parse_path("UUDUDD")
    assert path_to_vector("UUDUDD", 2) == path_to_vector(p, 2)
    assert unitary_shift("UUDUDD", 1) == unitary_shift(p, 1)
    assert to_lambda("UUDUDD") == to_lambda(p)
    assert to_v_vector("UUDUDD") == to_v_vector(p)


def test_cycle_paths_known():
    words = [p.word for p in cycle_paths((1, 2, 3))]
    assert words == ["UDUUDUDD", "UUUDUDDD", "UUDDUDUD"]
    assert all(len(w) == 8 for w in words)
    assert sorted(p.word for p in cycle_paths((1,))) == ["UDUD", "UUDD"]


def test_cycle_paths_sit_in_one_rotation_orbit():
    for n in range(1, 6):
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            paths = cycle_paths(v)
            assert len(paths) == c.p
            tris = [vector_to_triangulation(d.col1) for d in c.diamonds]
            assert all(same_rotation_orbit(tris[0], t) for t in tris[1:])
