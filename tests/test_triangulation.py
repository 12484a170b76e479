import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckfrieze import (
    Triangulation,
    all_paths,
    catalan,
    complete_diamond,
    cycle_heads,
    enumerate_all,
    minimal_cycle,
    quiddity,
    realize,
    rotate,
    rotation_orbit,
    same_rotation_orbit,
    to_lambda,
    triangles,
    vector_to_triangulation,
)
from dyckfrieze.diamond import rotation_period
from dyckfrieze.errors import InputError, PositionOutOfRange, SizeMismatch
from oracles import (
    brute_triangulation_diagonal_sets,
    pairwise_non_crossing,
    polygon_chords,
    quiddity_by_faces,
    random_triangulation_diagonals,
    rotation_orbit_by_rotate,
    triangles_by_ear_clipping,
)


def tri(N, pairs):
    return Triangulation(N, frozenset(pairs))


def assert_same_as_validated(t):
    # realize and rotate skip the constructor's checks; redo them here
    checked = Triangulation(t.polygon_size, t.diagonals)
    assert t == checked and hash(t) == hash(checked)
    assert len(t.diagonals) == t.polygon_size - 3
    assert pairwise_non_crossing(t.diagonals)


def test_realize_hexagon_example():
    t = realize((2, 2, 1))
    assert t.polygon_size == 6
    assert t.diagonals == frozenset({(2, 4), (2, 5), (1, 5)})


def test_realize_all_zero_gives_fan():
    for n in range(1, 7):
        t = realize((0,) * n)
        assert t.diagonals == frozenset((0, k) for k in range(2, n + 2))


def test_realize_square():
    assert realize((1,)).diagonals == frozenset({(1, 3)})


def test_realize_rejects_bad_positions():
    with pytest.raises(PositionOutOfRange):
        realize((3,))
    with pytest.raises(PositionOutOfRange):
        realize((2, 2, 2))
    with pytest.raises(InputError):
        realize((-1,))


def test_realize_output_always_valid():
    # realize skips the constructor, so every output is checked against it
    # and the pairwise oracle; up to rank 7, every rotation of an output is
    # an output, so each rotation is checked as the output it equals
    for k in range(2, 10):
        outputs = set()
        for p in all_paths(k):
            t = realize(to_lambda(p))
            assert t.polygon_size == k + 2
            assert_same_as_validated(t)
            outputs.add(t)
        if k <= 8:
            assert {rotate(t, s) for t in outputs for s in range(k + 2)} == outputs


@given(st.integers(3, 60), st.integers(-200, 200), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_rotate_output_always_valid(N, k, rng):
    t = Triangulation(N, random_triangulation_diagonals(N, rng))
    moved = rotate(t, k)
    assert_same_as_validated(moved)
    assert moved.diagonals == frozenset(
        tuple(sorted(((i + k) % N, (j + k) % N))) for i, j in t.diagonals
    )


@pytest.mark.parametrize("k", [2.0, "a", None, True, (1,)])
def test_rotate_rejects_non_integer_shift(k):
    with pytest.raises(InputError, match="not an integer"):
        rotate(realize((0, 0, 0)), k)


@pytest.mark.parametrize(
    "N, pairs",
    [
        (6, {(2.0, 4.0), (2.0, 5.0), (0.0, 2.0)}),
        (6, {(2, 4), (2, 5), (0, 2.0)}),
        (6, {(True, 4), (2, 5), (0, 2)}),
        (6, {("2", "4"), (2, 5), (0, 2)}),
        (6.0, {(2, 4), (2, 5), (0, 2)}),
        (True, set()),
        (6, {(2, 4, 5), (2, 5), (0, 2)}),
        (6, {3, (2, 5), (0, 2)}),
    ],
)
def test_constructor_rejects_non_integer_labels(N, pairs):
    with pytest.raises(InputError):
        Triangulation(N, pairs)


def test_constructor_rejects_malformed():
    with pytest.raises(InputError):
        tri(6, {(2, 4)})  # wrong count
    with pytest.raises(InputError):
        tri(6, {(0, 1), (2, 4), (2, 5)})  # polygon edge
    with pytest.raises(InputError, match=r"\(0, 2\) and \(1, 4\) cross"):
        tri(6, {(0, 2), (1, 3), (1, 4)})  # crossing pair
    with pytest.raises(InputError):
        tri(6, {(0, 7), (2, 4), (2, 5)})  # label out of range
    with pytest.raises(InputError, match="polygon size is 2"):
        Triangulation(2, ())


def test_constructor_accepts_exactly_the_non_crossing_sets():
    # differential against the pairwise oracle over every (N-3)-subset
    for N in range(3, 9):
        valid = set(brute_triangulation_diagonal_sets(N))
        for combo in itertools.combinations(polygon_chords(N), N - 3):
            if frozenset(combo) in valid:
                assert tri(N, combo).diagonals == frozenset(combo)
            else:
                with pytest.raises(InputError):
                    tri(N, combo)


def test_quiddity_square_fan():
    assert quiddity(tri(4, {(1, 3)})) == (1, 2, 1, 2)
    assert quiddity(tri(4, {(0, 2)})) == (2, 1, 2, 1)


def test_quiddity_hexagon_example():
    q = quiddity(realize((2, 2, 1)))
    assert q == (1, 2, 3, 1, 2, 3)
    assert sum(q) == 12 and 1 in q


def test_quiddity_pentagon_matches_cycle_heads():
    t = vector_to_triangulation((1, 1))
    c = minimal_cycle(complete_diamond((1, 1)))
    assert quiddity(t) == cycle_heads(c)  # (1, 2, 2, 1, 3)


def test_quiddity_agrees_with_degree_oracle():
    for n in range(1, 7):
        for v in enumerate_all(n):
            t = vector_to_triangulation(v)
            assert quiddity(t) == quiddity_by_faces(t)


def assert_faces_match_ear_clipping(t):
    faces = triangles(t)
    assert faces == sorted(set(triangles_by_ear_clipping(t)))
    assert len(faces) == t.polygon_size - 2


def test_triangles_count_and_cover():
    # every triangulation of the N-gon for N = 3..10
    assert_faces_match_ear_clipping(tri(3, ()))  # realize starts at rank 1
    for N in range(4, 11):
        for p in all_paths(N - 2):
            assert_faces_match_ear_clipping(realize(to_lambda(p)))


@given(st.integers(3, 60), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_triangles_match_ear_clipping_property(N, rng):
    t = Triangulation(N, random_triangulation_diagonals(N, rng))
    assert_faces_match_ear_clipping(t)


@pytest.mark.parametrize("N", [4, 7, 60, 120])
def test_triangles_of_a_zigzag_and_a_mid_vertex_fan(N):
    # the shapes on which the ear search scanned longest
    s = [k // 2 if k % 2 == 0 else N - 1 - k // 2 for k in range(N)]
    zigzag = tri(N, {tuple(sorted(s[k : k + 2])) for k in range(1, N - 2)})
    m = N // 2
    spokes = [w for w in range(N) if (w - m) % N not in (0, 1, N - 1)]
    fan = tri(N, {tuple(sorted((m, w))) for w in spokes})
    zigzag_faces = {tuple(sorted(s[k : k + 3])) for k in range(N - 2)}
    sides = [(w, (w + 1) % N) for w in range(N)]
    fan_faces = {tuple(sorted((m, *side))) for side in sides if m not in side}
    for t, faces in ((zigzag, zigzag_faces), (fan, fan_faces)):
        assert triangles(t) == sorted(faces)
        assert_faces_match_ear_clipping(t)


def test_rotate_group_action():
    t = realize((2, 2, 1))
    assert rotate(t, 0) == t
    assert rotate(rotate(t, 1), t.polygon_size - 1) == t
    assert rotate(t, t.polygon_size) == t


def test_rotate_quiddity_equivariance():
    t = realize((2, 2, 1))
    N = t.polygon_size
    q = quiddity(t)
    for k in range(N):
        rq = quiddity(rotate(t, k))
        assert rq == tuple(q[(v - k) % N] for v in range(N))


def test_same_rotation_orbit():
    t = realize((2, 2, 1))
    assert same_rotation_orbit(t, rotate(t, 3))
    assert same_rotation_orbit(tri(4, {(0, 2)}), tri(4, {(1, 3)}))
    fan = tri(6, {(0, 2), (0, 3), (0, 4)})
    zigzag = tri(6, {(0, 2), (2, 4), (0, 4)})
    assert sorted(quiddity(fan)) != sorted(quiddity(zigzag))
    assert not same_rotation_orbit(fan, zigzag)
    with pytest.raises(SizeMismatch):
        same_rotation_orbit(fan, tri(4, {(0, 2)}))


def test_vector_to_triangulation_heptagon():
    t = vector_to_triangulation((2, 3, 4, 1))
    assert t.polygon_size == 7
    assert t.diagonals == frozenset({(0, 4), (1, 4), (2, 4), (4, 6)})
    assert quiddity(t) == (2, 2, 2, 1, 5, 1, 2)


def test_vector_map_hits_every_triangulation():
    # independent oracle: filter all chord subsets for non-crossing
    for n in range(1, 6):
        images = {vector_to_triangulation(v).diagonals for v in enumerate_all(n)}
        expected = set(brute_triangulation_diagonal_sets(n + 3))
        assert images == expected
        assert len(images) == catalan(n + 1)


def test_orbit_size_divides_polygon_size():
    for n in range(1, 6):
        for v in enumerate_all(n):
            t = vector_to_triangulation(v)
            assert t.polygon_size % len(rotation_orbit(t)) == 0


def assert_orbit_matches_rotate(t):
    orbit = rotation_orbit(t)
    assert orbit == rotation_orbit_by_rotate(t)
    assert len(orbit) == rotation_period(quiddity(t))
    assert t in orbit


def test_orbit_matches_rotate_oracle_exhaustive():
    # every triangulation of the N-gon, N = 3..10; the triangle has none
    # to realize from a path, and its orbit is itself
    for N in range(3, 11):
        lams = [()] if N == 3 else [to_lambda(p) for p in all_paths(N - 2)]
        assert len(lams) == catalan(N - 2)
        for lam in lams:
            assert_orbit_matches_rotate(realize(lam))


def test_orbit_of_the_triangle_is_itself():
    t = Triangulation(3, ())
    assert rotation_orbit(t) == {t}
    assert same_rotation_orbit(t, t)


# a Random seeded from eight drawn bytes: one draw per example, where
# st.randoms makes one per call of the triangulation's randint
@given(st.integers(3, 80), st.binary(min_size=8, max_size=8).map(random.Random))
@settings(max_examples=200)
def test_orbit_matches_rotate_oracle_property(N, rng):
    assert_orbit_matches_rotate(Triangulation(N, random_triangulation_diagonals(N, rng)))


def _symmetric(N, s):
    """A triangulation of the N-gon fixed by rotation through N/s: the
    polygon on vertices 0, N/s, 2N/s, ... (a diameter when s = 2), and
    each of the s pieces outside it fanned from its lowest vertex."""
    m = N // s
    base = [(0, k) for k in range(2, m)] + [(k * m, (k + 1) * m) for k in range(s)]
    pairs = {
        tuple(sorted(((i + k * m) % N, (j + k * m) % N)))
        for i, j in base
        for k in range(s)
    }
    return Triangulation(N, pairs)


@pytest.mark.parametrize(
    "N,s", [(4, 2), (6, 2), (8, 2), (12, 2), (30, 2), (6, 3), (9, 3), (12, 3), (30, 3)]
)
def test_orbit_of_a_symmetric_triangulation(N, s):
    t = _symmetric(N, s)
    assert rotate(t, N // s) == t
    assert len(rotation_orbit(t)) == N // s
    assert_orbit_matches_rotate(t)


def test_text_form():
    assert realize((2, 2, 1)).to_text() == "N=6; 1-5,2-4,2-5"
