import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckfrieze import (
    FriezePattern,
    Triangulation,
    complete_diamond,
    cycle_heads,
    enumerate_all,
    frieze_of_vector,
    from_cycle,
    from_quiddity,
    minimal_cycle,
    period,
    render_ascii,
    to_json_dict,
    verify,
    violations,
)
from dyckfrieze.errors import (
    FailsToClose,
    InputError,
    NonPositiveEntry,
    RangeError,
)
from oracles import (
    frieze_rows_by_division,
    quiddity_by_faces,
    random_triangulation_diagonals,
)


def _outcome(build, q):
    try:
        return build(q)
    except InputError as exc:
        return type(exc), str(exc)


def test_from_quiddity_reproduces_known_band():
    fp = from_quiddity((2, 3, 1, 2, 3, 1))
    assert fp.order == 6
    assert fp.rows[2] == (2, 3, 1, 2, 3, 1)
    assert fp.rows[3] == (5, 2, 1, 5, 2, 1)
    assert fp.rows[4] == (3, 1, 2, 3, 1, 2)
    assert verify(fp)
    assert period(fp) == 3


def test_from_quiddity_order_four():
    fp = from_quiddity((1, 2, 1, 2))
    assert fp.order == 4
    assert fp.rows == (
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (1, 2, 1, 2),
        (1, 1, 1, 1),
        (0, 0, 0, 0),
    )
    assert period(fp) == 2


def test_from_quiddity_triangle_is_degenerate_but_valid():
    # the 3-gon has the empty triangulation, whose quiddity is all ones
    fp = from_quiddity((1, 1, 1))
    assert fp.order == 3
    assert verify(fp)


def test_from_quiddity_rejects_non_quiddities():
    with pytest.raises(FailsToClose):
        from_quiddity((1, 1, 1, 1))
    with pytest.raises(FailsToClose):
        from_quiddity((2, 2, 2, 2))
    # entries sum to 8, not 9: rejected before any row is built
    with pytest.raises(FailsToClose, match="sum"):
        from_quiddity((2, 3, 1, 1, 1))
    with pytest.raises(FailsToClose, match="exceeds"):
        from_quiddity((1, 1, 4, 1, 2))
    # within both bounds, yet a later row goes nonpositive or misses the ones
    with pytest.raises(NonPositiveEntry, match="row 3"):
        from_quiddity((1, 1, 1, 3, 3))
    with pytest.raises(FailsToClose, match="row 5"):
        from_quiddity((2, 2, 2, 2, 2, 2))
    with pytest.raises(NonPositiveEntry):
        from_quiddity((1, 0, 1, 2))
    with pytest.raises(RangeError):
        from_quiddity((1, 2))
    with pytest.raises(InputError):
        from_quiddity((1, 2, "x", 2))


@given(st.lists(st.integers(1, 6), min_size=3, max_size=9))
@settings(max_examples=500)
def test_from_quiddity_matches_division_oracle(q):
    # the same rows, or the same error with the same message; a sequence
    # outside the quiddity bounds fails to close before any row is built,
    # and the oracle rejects it as well
    got = _outcome(lambda q: from_quiddity(q).rows, q)
    expected = _outcome(frieze_rows_by_division, q)
    N = len(q)
    if max(q) > N - 2 or sum(q) != 3 * (N - 2):
        assert got[0] is FailsToClose
        assert isinstance(expected[0], type)
    else:
        assert got == expected


@given(st.integers(4, 60), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_from_quiddity_matches_division_oracle_past_enumeration_cap(N, rng):
    q = quiddity_by_faces(Triangulation(N, random_triangulation_diagonals(N, rng)))
    assert from_quiddity(q).rows == frieze_rows_by_division(q)


@st.composite
def quiddity_candidates(draw):
    """An arbitrary positive tuple, or the quiddity of a random
    triangulation, of length 3..40."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(1, 5), min_size=3, max_size=40)))
    N = draw(st.integers(3, 40))
    rng = draw(st.randoms(use_true_random=False))
    return quiddity_by_faces(Triangulation(N, random_triangulation_diagonals(N, rng)))


def _closure(q):
    try:
        fp = from_quiddity(q)
    except InputError as exc:
        return type(exc)
    return fp.rows, verify(fp)


@given(quiddity_candidates(), st.integers(0, 39))
@settings(max_examples=300)
def test_rotated_quiddity_gives_column_rotated_frieze(q, k):
    # run_checks verifies one closing frieze per rotation class on this ground
    k %= len(q)
    expected = _closure(q)
    if not isinstance(expected, type):
        rows, verified = expected
        expected = tuple(row[k:] + row[:k] for row in rows), verified
    assert _closure(q[k:] + q[:k]) == expected


def test_from_cycle_rank_one():
    fp = from_cycle(minimal_cycle(complete_diamond((1,))))
    assert fp.order == 4
    assert fp.rows[2] == (1, 2, 1, 2)
    assert verify(fp)


def test_from_cycle_rank_three_heads():
    fp = frieze_of_vector((1, 2, 3))
    assert fp.order == 6
    assert fp.quiddity == (1, 3, 2, 1, 3, 2)
    assert period(fp) == 3


def test_from_cycle_all_ones_vector():
    c = minimal_cycle(complete_diamond((1, 1, 1)))
    assert c.p == 6
    assert cycle_heads(c) == (1, 2, 2, 2, 1, 4)
    assert verify(from_cycle(c))


def test_from_cycle_equals_from_quiddity():
    for n in range(1, 6):
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            heads = cycle_heads(c) * ((n + 3) // c.p)
            assert from_cycle(c) == from_quiddity(heads)


def test_member_friezes_are_column_rotations():
    for v in [(1, 1), (1, 2, 3), (2, 3, 4, 1)]:
        c = minimal_cycle(complete_diamond(v))
        base = from_cycle(c)
        N = base.order
        for k, member in enumerate(c.diamonds):
            shifted = from_cycle(minimal_cycle(member))
            for r in range(N + 1):
                assert shifted.rows[r] == tuple(
                    base.rows[r][(col + k) % N] for col in range(N)
                )


def test_verify_detects_tampering():
    fp = from_quiddity((2, 3, 1, 2, 3, 1))
    rows = [list(row) for row in fp.rows]
    rows[3][1] += 1
    bad = FriezePattern(fp.order, tuple(tuple(r) for r in rows))
    assert not verify(bad)
    report = violations(bad)
    assert any("rule fails" in msg for msg in report)


def test_verify_detects_broken_border():
    fp = from_quiddity((1, 2, 1, 2))
    rows = [list(row) for row in fp.rows]
    rows[0][0] = 1
    bad = FriezePattern(fp.order, tuple(tuple(r) for r in rows))
    assert any("zeros" in msg for msg in violations(bad))


def test_violations_names_non_integer_entry():
    fp = from_quiddity((2, 3, 1, 2, 3, 1))
    rows = [list(row) for row in fp.rows]
    rows[3][1] = "5"
    bad = FriezePattern(fp.order, tuple(tuple(r) for r in rows))
    assert violations(bad) == ["entry at row 3, column 1 is '5', not an integer"]
    assert not verify(bad)


def test_period_divides_order():
    for n in range(1, 6):
        for v in enumerate_all(n):
            fp = frieze_of_vector(v)
            assert fp.order % period(fp) == 0


def test_render_shape_and_determinism():
    fp = from_quiddity((1, 2, 1, 2))
    text = render_ascii(fp, repetitions=1)
    assert len(text.split("\n")) == 5
    assert render_ascii(fp, repetitions=1) == text
    with pytest.raises(RangeError):
        render_ascii(fp, repetitions=0)


def test_render_roundtrip_recovers_rows():
    for v in [(1,), (1, 1), (1, 2, 3), (2, 3, 4, 1)]:
        fp = frieze_of_vector(v)
        N = fp.order
        for reps in (1, 2):
            for r, line in enumerate(render_ascii(fp, reps).split("\n")):
                tokens = [int(tok) for tok in line.split()]
                assert len(tokens) == N * reps
                shift = r // 2
                recovered = tuple(tokens[(c + shift) % N] for c in range(N))
                assert recovered == fp.rows[r]


def test_json_form():
    fp = from_quiddity((1, 2, 1, 2))
    out = to_json_dict(fp)
    assert out["order"] == 4
    assert out["quiddity"] == [1, 2, 1, 2]
    assert out["rows"][0] == [0, 0, 0, 0]
    assert len(out["rows"]) == 5
