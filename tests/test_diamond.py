import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckfrieze import (
    Cycle,
    Diamond,
    Triangulation,
    check_head_form,
    complete_diamond,
    couple_next,
    cycle_heads,
    enumerate_all,
    minimal_cycle,
)
from dyckfrieze import diamond
from dyckfrieze.diamond import _frieze_rows, diagonal
from dyckfrieze.errors import (
    InputError,
    InvariantViolation,
    NonExactDivision,
    NonPositiveEntry,
    RangeError,
)
from oracles import (
    diagonal_by_index,
    frieze_rows_by_division,
    head_form_by_search,
    minimal_cycle_by_coupling,
    minimal_cycle_by_diagonals,
    minimal_cycle_validated,
    monodromy_is_minus_identity,
    quiddity_by_faces,
    random_triangulation_diagonals,
    rotation_period_by_scan,
    small_sequences,
    unimodular_holds,
    winding,
)


def test_complete_smallest_rank():
    d = complete_diamond((1,))
    assert d.col2 == (2,)


def test_complete_known_columns():
    cases = {
        (1, 1, 1): (2, 3, 4),
        (1, 2, 3): (3, 5, 2),
        (2, 3, 4, 1): (2, 3, 1, 2),
        (2, 3, 4, 1, 1): (2, 3, 1, 2, 3),
    }
    for col1, col2 in cases.items():
        d = complete_diamond(col1)
        assert d.col2 == col2
        assert unimodular_holds(d.col1, d.col2)


def test_complete_rejects_non_exact_division():
    with pytest.raises(NonExactDivision) as info:
        complete_diamond((2, 2))
    assert info.value.index == 1


def test_complete_rejects_bad_entries():
    with pytest.raises(NonPositiveEntry):
        complete_diamond((1, 0, 1))
    with pytest.raises(InputError):
        complete_diamond(())
    with pytest.raises(InputError):
        complete_diamond((1, "x"))


def test_direct_construction_checks_rule():
    with pytest.raises(InputError):
        Diamond((1,), (3,))
    with pytest.raises(InputError):
        Diamond((1, 2), (3,))


@pytest.mark.parametrize("col1, col2", [((1.0,), (2.0,)), ((True,), (2,))])
def test_direct_construction_rejects_non_integers(col1, col2):
    with pytest.raises(InputError, match="not an integer"):
        Diamond(col1, col2)


# Entries in -2..12, and now and then one of 4,500 digits, past the
# 4,300-digit limit of str, so that a message printing it would raise.
HUGE = 10**4499 + 7
ENTRIES = (*range(-2, 13), HUGE, -HUGE)
DIAMOND_VECTORS = [v for n in range(1, 7) for v in enumerate_all(n)]


@st.composite
def column_pairs(draw):
    """Two int lists of length 1..6, arbitrary or a true diamond's columns
    with up to two entries replaced and the second column maybe resized.
    Every choice reads two bytes of one drawn string, as ``dyck_words``
    reads its steps off drawn bytes: one draw per example, not a dozen."""
    data = iter(draw(st.binary(min_size=32, max_size=32)))

    def pick(seq):
        return seq[(next(data) << 8 | next(data)) % len(seq)]

    def column():
        return [pick(ENTRIES) for _ in range(pick(range(1, 7)))]

    if pick((False, True)):
        return column(), column()
    d = complete_diamond(pick(DIAMOND_VECTORS))
    cols = [list(d.col1), list(d.col2)]
    for _ in range(pick(range(3))):
        col = pick(cols)
        col[pick(range(len(col)))] = pick(ENTRIES)
    cols[1] = cols[1][: pick(range(1, 8))]
    cols[1] += [pick(ENTRIES)] * pick((0, 1))
    return cols


@given(column_pairs())
@example(([1, 2], [3]))  # the completion (3, 2) is longer
@example(([1], [HUGE]))  # 1*HUGE - 1*1 != 1, and HUGE is too long to print
@settings(max_examples=400)
def test_direct_construction_accepts_exactly_what_the_oracle_accepts(cols):
    col1, col2 = cols
    if len(col1) == len(col2) and min(col1 + col2) >= 1 and unimodular_holds(*cols):
        d = Diamond(col1, col2)
        assert (d.col1, d.col2) == (tuple(col1), tuple(col2))
    else:
        with pytest.raises(InputError):  # never a bare ValueError from str()
            Diamond(col1, col2)


def assert_same_as_validated(d):
    # complete_diamond skips the constructor; redo its check here.  The
    # constructor completes col1 itself, so the literal rule check below is
    # what keeps this independent of complete_diamond.
    checked = Diamond(d.col1, d.col2)
    assert d == checked and hash(d) == hash(checked)
    assert unimodular_holds(d.col1, d.col2)
    assert all(type(x) is int and x >= 1 for x in d.col1 + d.col2)


def test_rule_holds_exactly_on_all_enumerated():
    for n in range(1, 8):
        for v in enumerate_all(n):
            assert_same_as_validated(complete_diamond(v))


# Lengths 1..8 and entries 1..12, read off one drawn byte string as
# dyck_words reads its steps: one draw per example, not one per entry.
SHORT_VECTORS = st.binary(min_size=9, max_size=9).map(
    lambda b: [1 + x % 12 for x in b[1 : 2 + b[0] % 8]]
)


@given(SHORT_VECTORS)
@settings(max_examples=500)
def test_complete_diamond_output_valid_or_rejected(v):
    try:
        d = complete_diamond(v)
    except (NonExactDivision, NonPositiveEntry):
        return
    assert d.col1 == tuple(v)
    assert_same_as_validated(d)


@given(st.integers(4, 60), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_complete_diamond_output_valid_past_enumeration_cap(N, rng):
    q = quiddity_by_faces(Triangulation(N, random_triangulation_diagonals(N, rng)))
    assert_same_as_validated(complete_diamond(diagonal(q, 0, N - 1)[2:]))


def test_head_form_known_diamonds():
    assert check_head_form(complete_diamond((2, 3, 4, 1))) is True
    assert check_head_form(complete_diamond((1, 1))) is True


def _top_entries(a11, a21, a12, n):
    """A rank-n diamond with the given top entries, built unchecked: the
    head relation is a predicate on those entries alone."""
    return Diamond._trusted((a11, a12) + (1,) * (n - 2), (a21,) * n)


def test_head_form_rejects_impossible_triple():
    # no (a, m) in range reproduces top entries (3, 3) with second entry 8
    assert check_head_form(_top_entries(3, 3, 8, 2)) is False
    assert head_form_by_search(3, 3, 8, 2) is False


def test_head_form_closed_form_matches_search():
    for n in range(2, 14):
        for a11 in range(0, n + 5):
            for a21 in range(0, n + 5):
                for a12 in (a11 * a21 - 2, a11 * a21 - 1, a11 * a21):
                    args = (a11, a21, a12, n)
                    closed = check_head_form(_top_entries(*args))
                    assert closed is head_form_by_search(*args), args


def test_head_form_requires_rank_two():
    with pytest.raises(RangeError):
        check_head_form(complete_diamond((1,)))


def test_head_form_holds_on_all_enumerated():
    for n in range(2, 7):
        for v in enumerate_all(n):
            d = complete_diamond(v)
            assert check_head_form(d) is True
            assert head_form_by_search(d.col1[0], d.col2[0], d.col1[1], n) is True


def test_couple_next_swaps_rank_one_pair():
    a = complete_diamond((1,))
    b = couple_next(a)
    assert (b.col1, b.col2) == ((2,), (1,))
    assert couple_next(b) == a


def test_couple_next_known_rank_three():
    d = complete_diamond((1, 2, 3))
    nxt = couple_next(d)
    assert nxt.col1 == (3, 5, 2)
    assert nxt.col2 == (2, 1, 1)
    assert d.col2 == nxt.col1


def test_minimal_cycle_rank_one():
    c = minimal_cycle(complete_diamond((1,)))
    assert c.p == 2
    assert [d.col1 for d in c.diamonds] == [(1,), (2,)]
    assert cycle_heads(c) == (1, 2)


def test_minimal_cycle_rank_two():
    c = minimal_cycle(complete_diamond((1, 1)))
    assert c.p == 5
    assert [d.col1 for d in c.diamonds] == [(1, 1), (2, 3), (2, 1), (1, 2), (3, 2)]
    assert cycle_heads(c) == (1, 2, 2, 1, 3)


def test_minimal_cycle_rank_three():
    c = minimal_cycle(complete_diamond((1, 2, 3)))
    assert c.p == 3
    assert [d.col1 for d in c.diamonds] == [(1, 2, 3), (3, 5, 2), (2, 1, 1)]
    assert cycle_heads(c) == (1, 3, 2)


def test_cycle_heads_repeat_to_full_period():
    for v in [(1,), (1, 1), (1, 2, 3), (1, 1, 1)]:
        c = minimal_cycle(complete_diamond(v))
        n = c.n
        full = cycle_heads(c) * ((n + 3) // c.p)
        assert len(full) == n + 3


def test_cycle_period_divides_order():
    for n in range(1, 6):
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            assert (n + 3) % c.p == 0


def test_rotation_period_matches_full_scan_on_planted_periods():
    # at every length 1..60 (primes and 60 among them), a block of each
    # length p repeated and cut to length: a divisor p with a primitive
    # block plants period p exactly; random blocks over three letters, at
    # divisors and non-divisors alike, give whatever period they happen to
    rng = random.Random(17)
    for N in range(1, 61):
        for p in range(1, N + 1):
            if N % p == 0:
                seq = ((1,) + (0,) * (p - 1)) * (N // p)
                assert diamond.rotation_period(seq) == p
            block = tuple(rng.randrange(3) for _ in range(p))
            seq = (block * (N // p + 1))[:N]
            assert diamond.rotation_period(seq) == rotation_period_by_scan(seq)


def test_coupling_power_is_identity_on_cycle():
    for n in range(1, 6):
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            for start in c.diamonds:
                d = start
                for _ in range(c.p):
                    d = couple_next(d)
                assert d == start


def test_cycle_start_is_immaterial():
    for n in range(1, 5):
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            for member in c.diamonds:
                again = minimal_cycle(member)
                assert set(again.diamonds) == set(c.diamonds)
                assert again.p == c.p


def test_diagonal_known_values():
    # the frieze of the square, and the column 0 diagonal of (1, 3, 2, 1, 3, 2)
    assert diagonal((1, 2, 1, 2), 0, 5) == (0, 1, 1, 1, 0)
    assert diagonal((1, 3, 2, 1, 3, 2), 0, 7) == (0, 1, 1, 2, 3, 1, 0)
    assert diagonal((1, 3, 2, 1, 3, 2), 1, 4) == (0, 1, 3, 5)
    assert diagonal((5,), 0, 2) == (0, 1)


def test_minimal_cycle_matches_coupling_oracle_exhaustive():
    for n in range(1, 7):
        for v in enumerate_all(n):
            d = complete_diamond(v)
            assert minimal_cycle(d) == minimal_cycle_by_coupling(d)
            assert minimal_cycle(d) == minimal_cycle_validated(d)


@given(st.integers(4, 60), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_minimal_cycle_matches_coupling_oracle_past_enumeration_cap(N, rng):
    # a diamond vector of rank N - 3 is a frieze column between its borders
    q = quiddity_by_faces(Triangulation(N, random_triangulation_diagonals(N, rng)))
    rows = frieze_rows_by_division(q)
    d = complete_diamond(tuple(rows[r][0] for r in range(2, N - 1)))
    assert minimal_cycle(d) == minimal_cycle_by_coupling(d)
    assert minimal_cycle(d) == minimal_cycle_validated(d)
    assert minimal_cycle(d) == minimal_cycle_by_diagonals(d)


def test_minimal_cycle_matches_one_diagonal_per_member_exhaustive():
    for n in range(1, 8):
        for v in enumerate_all(n):
            d = complete_diamond(v)
            assert minimal_cycle(d) == minimal_cycle_by_diagonals(d)


def test_a_diamond_closes_its_own_frieze(monkeypatch):
    # the lemma of minimal_cycle: a diamond's columns make its frieze rows
    # glide, and q sum to 3N - 6, so the guard never trips on a Diamond.
    # Coupling is a function, so the oracle's cycle through member t is its
    # cycle through member 0 turned by t, and it runs once per cycle.
    seen = []

    def recorded(q):
        rows, glided = _frieze_rows(q)
        seen.append((q, glided))
        return rows, glided

    monkeypatch.setattr(diamond, "_frieze_rows", recorded)
    vectors = [v for n in range(1, 9) for v in enumerate_all(n)]
    rng = random.Random(35)
    for N in range(403, 12, -70):
        q = [1] * N  # a vertex meets one more triangle than diagonals
        for a, b in random_triangulation_diagonals(N, rng):
            q[a] += 1
            q[b] += 1
        vectors.append(diagonal_by_index(q, 0, N - 1)[2:])
    want = {}
    for v in vectors:
        d0 = complete_diamond(v)
        if v not in want:
            ds = minimal_cycle_by_diagonals(d0).diamonds
            want.update((d.col1, ds[t:] + ds[:t]) for t, d in enumerate(ds))
        seen.clear()
        assert minimal_cycle(d0).diamonds == want[v]
        [(q, glided)] = seen
        assert glided and sum(q) == 3 * len(q) - 6, v


def test_monodromy_minus_identity_sums_to_3n_minus_6_only_when_positive():
    # the winding lemma of _frieze_rows on every q of entries -1..3 at
    # N = 3..7 whose monodromy is -I: it sums to 3N - 6k for k half-turns,
    # k odd, so it falls short of 3(N - 2) by a multiple of 12, and k = 1
    # makes q and every entry of rows 1..N - 1 positive
    deficits = Counter()
    for N in range(3, 8):
        for q, _, closes, ds in small_sequences(N):
            if closes:
                k = winding(q)
                assert k % 2 == 1 and sum(q) == 3 * N - 6 * k, q
                if k == 1:
                    assert min(min(d[1:N]) for d in ds) >= 1 and min(q) >= 1, q
                deficits[N, sum(q) - 3 * (N - 2)] += 1
    assert deficits == {
        (3, 0): 1,
        (4, 0): 2,
        (5, 0): 5,
        (5, -12): 5,
        (6, 0): 8,
        (6, -12): 37,
        (7, 0): 7,
        (7, -12): 182,
    }


@given(
    st.integers(3, 36),
    st.integers(0, 3),
    st.integers(0, 12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100)
def test_sum_counts_the_half_turns_of_a_gliding_sequence_property(N, pairs, ones, rng):
    # the winding lemma's moves run backwards from a triangulation's
    # quiddity, k = 1: splitting an entry s into (a, 0, s - a) adds a
    # half-turn and flips the monodromy's sign, so splits come in pairs;
    # inserting a 1, whose neighbours each gain 1, keeps k
    t = Triangulation(N, random_triangulation_diagonals(N, rng))
    q = list(quiddity_by_faces(t))
    moves = ["split"] * 2 * pairs + ["one"] * ones
    rng.shuffle(moves)
    for move in moves:
        i = rng.randrange(len(q))
        if move == "split":
            a = rng.randint(-3, q[i] + 3)
            q[i : i + 1] = [a, 0, q[i] - a]
        else:
            q[i] += 1
            q.insert(i + 1, 1)
            q[(i + 2) % len(q)] += 1
    q, k = tuple(q), 1 + 2 * pairs
    rows, glided = _frieze_rows(q)
    assert glided and monodromy_is_minus_identity(q), q
    assert winding(q) == k and sum(q) == 3 * len(q) - 6 * k, q
    if k == 1:
        assert min(map(min, rows[1:])) >= 1, q


def _rows_by_diagonals(q):
    N = len(q)
    return tuple(zip(*(diagonal(q, c, N) for c in range(N))))


def test_frieze_rows_are_the_diagonals_exhaustive():
    # every integer sequence, closing or not: the kernel fills rows by the
    # glide from N = 5 on, for 55 of them, those of monodromy -I, 42 of
    # those with an entry below 1, so the glide fill runs on non-positive
    # friezes too
    glide_filled = 0
    for N in range(2, 7):
        for q, _, closes, ds in small_sequences(N):
            assert _frieze_rows(q)[0] == tuple(zip(*ds))[:N], q
            glide_filled += N >= 5 and closes
    assert glide_filled == 55


@given(st.integers(3, 120), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_frieze_rows_are_the_diagonals_past_enumeration_cap(N, rng):
    q = quiddity_by_faces(Triangulation(N, random_triangulation_diagonals(N, rng)))
    assert monodromy_is_minus_identity(q)
    assert _frieze_rows(q)[0] == _rows_by_diagonals(q)


def test_monodromy_minus_identity_iff_every_diagonal_closes():
    # the table's monodromy test of q against its diagonals of length N + 1
    for N in range(1, 7):
        for q, _, minus_identity, ds in small_sequences(N):
            closes = all(d[N - 1] == 1 and d[N] == 0 for d in ds)
            assert minus_identity == closes, q


def test_kernel_glides_exactly_when_the_monodromy_is_minus_identity(monkeypatch):
    # the kernel runs the recurrence through row N//2 + 1 and reads the
    # rest off the glide when those rows match it, and says so, else runs
    # on to row N - 1; each recurrence row maps N products.  Turning q
    # turns every row, so one q per rotation class is tried: the least of
    # its turns
    products = []
    monkeypatch.setattr(diamond, "mul", lambda x, y: products.append(1) or x * y)

    def recurrence_rows(q):
        products.clear()
        rows, glided = _frieze_rows(q)
        return rows, glided, len(products) // len(q)

    glided = 0
    for N in range(3, 8):
        for q, least, closes, ds in small_sequences(N):
            if not least:
                continue
            rows, glides, computed = recurrence_rows(q)
            assert glides == closes, q
            assert computed == (N // 2 if closes else N - 2), q
            assert rows == tuple(zip(*ds))[:N], q
            glided += closes
    assert glided == 42
    rng = random.Random(23)
    for N in range(3, 121):
        q = quiddity_by_faces(Triangulation(N, random_triangulation_diagonals(N, rng)))
        assert recurrence_rows(q)[1:] == (True, N // 2), q


def _outcome(build, d):
    try:
        return build(d)
    except InvariantViolation as exc:
        return str(exc)


@st.composite
def diagonal_arguments(draw):
    q = tuple(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=12)))
    N = len(q)
    return q, draw(st.integers(-3 * N, 3 * N)), draw(st.integers(0, 3 * N))


@given(diagonal_arguments())
@settings(max_examples=300)
def test_diagonal_matches_indexed_recurrence(args):
    assert diagonal(*args) == diagonal_by_index(*args)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(-2, 9), min_size=n, max_size=n)] * 2)
    )
)
@example(((1,), (5,)))  # reproduces itself, but 1*5 - 1*1 != 1
@example(((-1,), (4,)))  # sums to 3N - 6 and reproduces itself, but never glides
# q = (1, 4, 1, 2, 3, 1, 3) is a heptagon's quiddity, but its frieze has
# columns (1, 3, 2, 1) and (4, 3, 2, 3), not these
@example(((1, 2, 2, 1), (4, 3, 3, 3)))
# columns 0 and 1 of the all-ones nonagon's rows: its q is positive and
# glides, but its vectors make three half-turns, so it sums to 9, not 21
@example(((1, 0, -1, -1, 0, 1), (1, 0, -1, -1, 0, 1)))
@settings(max_examples=300)
def test_minimal_cycle_refuses_trusted_non_diamonds_like_the_oracle(cols):
    # Columns set without the rule check: a true diamond gives both versions
    # the same cycle, anything else makes both raise.  One diagonal per
    # member gives the same cycle or the same message.
    d = Diamond._trusted(tuple(cols[0]), tuple(cols[1]))
    assert _outcome(minimal_cycle, d) == _outcome(minimal_cycle_by_diagonals, d)
    if min(cols[0] + cols[1]) >= 1 and unimodular_holds(*cols):
        assert minimal_cycle(d) == minimal_cycle_validated(d)
        return
    with pytest.raises(InvariantViolation):
        minimal_cycle(d)
    with pytest.raises((InputError, InvariantViolation)):
        minimal_cycle_validated(d)


@pytest.mark.parametrize(
    "row, value", [(2, 0), (-1, 2)], ids=["non-positive", "not-closing"]
)
def test_minimal_cycle_rejects_a_later_member(monkeypatch, row, value):
    # A valid d0 cannot give a bad member, so column 2 of the frieze rows is
    # corrupted in place: an entry of its band set to 0, or its closing
    # entry, in row N - 1, to 2.  Such rows do not glide, and the one guard
    # refuses them.
    def corrupted(q):
        rows = [list(r) for r in _frieze_rows(q)[0]]
        rows[row][2] = value
        return tuple(map(tuple, rows)), False  # the glide no longer holds

    d0 = complete_diamond((1, 2, 3))  # a cycle of three members
    monkeypatch.setattr(diamond, "_frieze_rows", corrupted)
    with pytest.raises(InvariantViolation, match=r"of \(1, 2, 3\) does not close"):
        minimal_cycle(d0)


def test_cycle_constructor_rejects_uncoupled_members():
    a = complete_diamond((1,))
    with pytest.raises(InputError):
        Cycle((a, a))
    with pytest.raises(InputError):
        Cycle((a,))  # not coupled to itself: col2 != col1
    with pytest.raises(InputError, match="cycle length is 0"):
        Cycle(())


def test_validating_constructor_accepts_every_minimal_cycle_exhaustive():
    # minimal_cycle builds its Cycle without the check, which agrees
    for n in range(1, 8):
        seen = set()
        for v in enumerate_all(n):
            if v not in seen:
                c = minimal_cycle(complete_diamond(v))
                seen.update(d.col1 for d in c.diamonds)
                assert Cycle(c.diamonds) == c
