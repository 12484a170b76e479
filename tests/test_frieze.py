import copy
import itertools
import pickle
import random

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
    quiddity,
    render_ascii,
    rotation_orbit,
    to_json_dict,
    vector_to_path,
    vector_to_triangulation,
    verify,
    violations,
)
from dyckfrieze import diamond, frieze
from dyckfrieze.diamond import Cycle, _frieze_rows
from dyckfrieze.errors import (
    FailsToClose,
    InputError,
    InvariantViolation,
    NonPositiveEntry,
    RangeError,
)
from oracles import (
    closed_by_monodromy_gate,
    from_cycle_by_quiddity,
    from_cycle_by_scan,
    frieze_rows_by_division,
    monodromy_is_minus_identity,
    quiddity_by_faces,
    random_triangulation_diagonals,
    small_sequences,
    violations_by_entry,
    violations_by_lattice,
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
    # positive, of monodromy -I, yet a 9-gon with no diagonal, not a
    # triangulation: only the sum tells it from a triangulation's quiddity
    with pytest.raises(FailsToClose, match="sum"):
        from_quiddity((1,) * 9)
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


# Lengths 3..9 and entries 1..6, read off one drawn byte string as
# dyck_words reads its steps: one draw per example, not one per entry.
SHORT_SEQUENCES = st.binary(min_size=10, max_size=10).map(
    lambda b: [1 + x % 6 for x in b[1 : 4 + b[0] % 7]]
)


@given(SHORT_SEQUENCES)
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
    # both build the pattern without the constructor's checks, which accept
    # it as is
    for n in range(1, 6):
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            heads = cycle_heads(c) * ((n + 3) // c.p)
            fp = from_cycle(c)
            assert fp == from_quiddity(heads) == FriezePattern(fp.order, fp.rows)


def test_from_cycle_matches_the_scan_oracle():
    # the pattern built from the members unchecked, against the same
    # pattern built and then scanned
    for n in range(1, 8):
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            assert from_cycle(c) == from_cycle_by_scan(c)


def _column_zero(q):
    # the diamond vector down column 0 of the band of quiddity q
    return tuple(row[0] for row in frieze_rows_by_division(q)[2 : len(q) - 1])


def _triangulation_cycles(seed, orders):
    for q in _triangulation_quiddities(seed, orders):
        yield minimal_cycle(complete_diamond(_column_zero(q)))


def test_from_cycle_matches_the_quiddity_oracle():
    # the members' band against from_quiddity of the repeated heads, its
    # band compared with the members: every cycle at ranks 1..7, and one
    # random triangulation's cycle per N = 4..60
    vectors = [v for n in range(1, 8) for v in enumerate_all(n)]
    cycles = {minimal_cycle(complete_diamond(v)) for v in vectors}
    for c in (*cycles, *_triangulation_cycles(27, range(4, 61))):
        assert from_cycle(c) == from_cycle_by_quiddity(c)


def test_from_cycle_runs_no_kernel(monkeypatch):
    # what from_cycle builds is a frieze by the members' diamond rules, so
    # neither the kernel nor from_quiddity runs; only verify of it does
    cycles = list(_triangulation_cycles(28, [4, 5, 9, 16, 33]))
    calls = []

    def counted(f):
        return lambda *args: calls.append(f.__name__) or f(*args)

    monkeypatch.setattr(diamond, "_frieze_rows", counted(diamond._frieze_rows))
    monkeypatch.setattr(frieze, "_frieze_rows", counted(frieze._frieze_rows))
    monkeypatch.setattr(frieze, "from_quiddity", counted(frieze.from_quiddity))
    for c in cycles:
        fp = from_cycle(c)
        assert calls == []
        assert verify(fp)
        assert calls == ["from_quiddity", "_frieze_rows"]
        calls.clear()


def test_a_forward_request_runs_the_kernel_twice(monkeypatch):
    # complete, cycle, frieze, path, triangulation, quiddity, closing
    # frieze verified, orbit: minimal_cycle and from_quiddity each run the
    # kernel once, and nothing else runs it
    calls = []

    def counted(q):
        calls.append(q)
        return _frieze_rows(q)

    monkeypatch.setattr(diamond, "_frieze_rows", counted)
    monkeypatch.setattr(frieze, "_frieze_rows", counted)
    for q in _triangulation_quiddities(29, range(19, 68)):
        v = _column_zero(q)
        calls.clear()
        from_cycle(minimal_cycle(complete_diamond(v)))
        vector_to_path(v)
        t = vector_to_triangulation(v)
        assert verify(from_quiddity(quiddity(t)))
        rotation_orbit(t)
        assert len(calls) == 2, q


@pytest.mark.parametrize("plant", ["reversed", "last_dropped"])
def test_from_cycle_refuses_a_planted_non_cycle(plant):
    # a Cycle built unchecked from members that are not coupled gives a
    # pattern that breaks the rule first at the uncoupled column.  With the
    # last member dropped the heads (1, 3) repeat to a quiddity that
    # closes, so the oracle by quiddity catches it only by comparing the
    # band with the members; reversed, the heads are a rotation of a
    # quiddity
    members = minimal_cycle(complete_diamond((1, 2, 3))).diamonds
    assert len(members) == 3
    members = members[::-1] if plant == "reversed" else members[:2]
    c = Cycle._trusted(members)
    N = c.n + 3
    uncoupled = next(
        t for t in range(N) if members[t % c.p].col2 != members[(t + 1) % c.p].col1
    )
    fp = from_cycle(c)
    assert verify(fp) is False
    rule = next(p for p in violations(fp) if p.startswith("rule fails"))
    assert rule.startswith(f"rule fails at rows 1..3, column {uncoupled}:"), rule
    with pytest.raises(InvariantViolation, match="^cycle produced an invalid "):
        from_cycle_by_scan(c)
    heads = tuple(d.col1[0] for d in members) * (N // c.p)
    cols = list(zip(*frieze_rows_by_division(heads)[2 : N - 1]))
    col = next(t for t in range(N) if cols[t] != members[t % c.p].col1)
    message = (
        f"cycle produced an invalid pattern: column {col}, of member "
        f"{col % c.p}, is not a diagonal of the quiddity row"
    )
    with pytest.raises(InvariantViolation) as caught:
        from_cycle_by_quiddity(c)
    assert str(caught.value) == message


def _small_integer_sequences():
    # every q with entries -1..3 at N = 3..6, the least of its turns
    for N in range(3, 7):
        yield from (q for q, least, _, _ in small_sequences(N) if least)


def _sequences_within_the_quiddity_bounds():
    # every q with entries 1..N-2 summing to 3(N - 2) at N = 3..8, the
    # least of its turns: cut 1..3(N - 2) into N runs, and keep the cuts
    # with no run too long
    for N in range(3, 9):
        total = 3 * (N - 2)
        for cuts in itertools.combinations(range(1, total), N - 1):
            q = tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
            if max(q) <= N - 2 and q == min(q[k:] + q[:k] for k in range(N)):
                yield q


@pytest.mark.parametrize(
    "sequences", [_small_integer_sequences, _sequences_within_the_quiddity_bounds]
)
def test_violations_agree_with_the_monodromy_gate(sequences):
    # the kernel's rows of q closed by a zero row are a frieze exactly when
    # they pass the old shortcut, and q completes only with monodromy -I.
    # Turning q turns every row of its pattern and changes neither answer,
    # so one q per rotation class is tried: the least of its turns
    closed = 0
    for q in sequences():
        N = len(q)
        fp = FriezePattern._trusted(N, (*_frieze_rows(q)[0], (0,) * N))
        assert (violations(fp) == []) == closed_by_monodromy_gate(fp)
        try:
            from_quiddity(q)
        except InputError:
            continue
        assert monodromy_is_minus_identity(q)
        closed += 1
    assert closed > 0


def test_from_quiddity_matches_division_oracle_within_the_bounds():
    # every within-bounds q at N = 3..8, one per rotation class, gets the
    # oracle's rows or its error and message: a q whose rows do not glide
    # is scanned to row N - 1, and some fail below the middle
    below = 0
    for q in _sequences_within_the_quiddity_bounds():
        N = len(q)
        got = _outcome(lambda q: from_quiddity(q).rows, q)
        assert got == _outcome(frieze_rows_by_division, q), q
        try:
            from_quiddity(q)
        except NonPositiveEntry as exc:
            below += exc.row > N // 2
        except FailsToClose:
            pass
    assert below > 0


def _triangulation_quiddities(seed, orders):
    rng = random.Random(seed)
    for N in orders:
        yield quiddity_by_faces(Triangulation(N, random_triangulation_diagonals(N, rng)))


def _counted_kernel(monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return _frieze_rows(q)

    monkeypatch.setattr(frieze, "_frieze_rows", counted)
    return calls


def test_from_quiddity_scans_no_row_of_a_gliding_quiddity(monkeypatch):
    # within the bounds, rows that glide are a triangulation's, by the
    # winding lemma of diamond._frieze_rows, so no row is scanned for
    # positivity
    scanned = []
    monkeypatch.setattr(
        frieze, "min", lambda row: scanned.append(row) or min(row), raising=False
    )
    for q in _triangulation_quiddities(24, range(3, 61)):
        scanned.clear()
        assert from_quiddity(q).rows == frieze_rows_by_division(q)
        assert scanned == [], q


def test_verify_takes_the_proof_of_from_quiddity(monkeypatch):
    # what from_quiddity builds carries its proof, so checking it runs no
    # kernel; a public copy of its rows carries none and is checked by one
    calls = _counted_kernel(monkeypatch)
    for q in _triangulation_quiddities(25, [3, 4, 5, 8, 19, 45]):
        calls.clear()
        fp = from_quiddity(q)
        assert len(calls) == 1
        assert verify(fp) and violations(fp) == []
        assert len(calls) == 1
        assert verify(FriezePattern(fp.order, fp.rows))
        assert len(calls) == 2


def test_the_proof_is_kept_by_copies_and_neither_shown_nor_compared(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    for q in _triangulation_quiddities(26, [3, 6, 17]):
        fp = from_quiddity(q)
        public = FriezePattern(fp.order, fp.rows)
        assert fp == public and hash(fp) == hash(public) and repr(fp) == repr(public)
        calls.clear()
        for twin in (copy.copy(fp), copy.deepcopy(fp), pickle.loads(pickle.dumps(fp))):
            assert twin == fp and hash(twin) == hash(fp) and verify(twin)
        assert calls == []


def test_theorem_built_patterns_pass_the_constructor():
    # from_quiddity and from_cycle skip the shape and integer checks
    for n in range(1, 8):
        for v in enumerate_all(n):
            fp = frieze_of_vector(v)
            assert FriezePattern(fp.order, fp.rows) == fp
    rng = random.Random(20)
    for N in range(3, 61):
        t = Triangulation(N, random_triangulation_diagonals(N, rng))
        fp = from_quiddity(quiddity_by_faces(t))
        assert FriezePattern(fp.order, fp.rows) == fp


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


def test_constructor_checks_order_and_shape():
    fp = from_quiddity((2, 3, 1, 2, 3, 1))
    with pytest.raises(InputError, match="frieze order is 2"):
        FriezePattern(2, ((0, 0),) * 3)
    with pytest.raises(InputError, match="expected 7 rows of width 6"):
        FriezePattern(6, fp.rows[:-1])
    with pytest.raises(InputError, match="expected 7 rows of width 6"):
        FriezePattern(6, fp.rows[:-1] + (fp.rows[-1][:-1],))


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


def test_constructor_names_non_integer_entry():
    fp = from_quiddity((2, 3, 1, 2, 3, 1))
    rows = [list(row) for row in fp.rows]
    rows[3][1] = "5"
    message = "entry at row 3, column 1 is '5', not an integer"
    with pytest.raises(InputError, match=f"^{message}$"):
        FriezePattern(fp.order, tuple(tuple(r) for r in rows))


@st.composite
def tampered_friezes(draw):
    """Order and rows of a valid frieze of order 3..40 with up to four
    edits: an entry set or shifted (band entries and borders alike, breaking
    the rule and the glide), an entry set together with its glide image (the
    rule breaks, the glide holds), a whole row rotated, a non-int entry, or
    an entry set to +-10**4500, past the 4,300-digit limit of ``str``.
    Every choice reads two bytes of one drawn string, and the triangulation
    a Random seeded from eight, as ``dyck_words`` reads its steps off drawn
    bytes: one draw per example, not dozens."""
    data = iter(draw(st.binary(min_size=48, max_size=48)))

    def pick(seq):
        return seq[(next(data) << 8 | next(data)) % len(seq)]

    N = pick(range(3, 41))
    rng = random.Random(bytes(next(data) for _ in range(8)))
    t = Triangulation(N, random_triangulation_diagonals(N, rng))
    rows = [list(row) for row in from_quiddity(quiddity_by_faces(t)).rows]
    for _ in range(pick(range(5))):
        r, c = pick(range(N + 1)), pick(range(N))
        edits = ["set", "shift", "mirrored", "rotate", "type", "huge"]
        edit = pick(edits)
        if edit == "set":
            rows[r][c] = pick(range(-3, 10))
        elif edit == "shift" and type(rows[r][c]) is int:
            rows[r][c] += pick([-2, -1, 1, 2])
        elif edit == "mirrored":
            rows[r][c] = rows[N - r][(c + r) % N] = pick(range(-3, 10))
        elif edit == "rotate":
            rows[r] = rows[r][1:] + rows[r][:1]
        elif edit == "type":
            rows[r][c] = pick(["5", 2.0, None, True])
        elif edit == "huge":
            rows[r][c] = pick([10**4500, -(10**4500)])
    return N, rows


@given(tampered_friezes())
@settings(max_examples=150)
def test_violations_match_the_entry_by_entry_oracle(frieze):
    # the constructor refuses the first non-integer entry in row-major
    # order, so violations only ever sees int patterns
    N, rows = frieze
    bad = [
        (r, c, x)
        for r, row in enumerate(rows)
        for c, x in enumerate(row)
        if type(x) is not int
    ]
    if bad:
        r, c, x = bad[0]
        message = f"entry at row {r}, column {c} is {x!r}, not an integer"
        with pytest.raises(InputError) as caught:
            FriezePattern(N, rows)
        assert str(caught.value) == message
    else:
        fp = FriezePattern(N, rows)
        assert violations(fp) == violations_by_entry(fp) == violations_by_lattice(fp)


@pytest.mark.parametrize("N,r", [(8, 4), (7, 3), (7, 4)])
def test_a_mirrored_edit_in_the_middle_breaks_the_rule_not_the_glide(N, r):
    # the glide maps row r onto row N - r, and row N/2 onto itself at even N
    t = Triangulation(N, random_triangulation_diagonals(N, random.Random(N)))
    for c in range(N):
        rows = [list(row) for row in from_quiddity(quiddity_by_faces(t)).rows]
        rows[r][c] = rows[N - r][(c + r) % N] = rows[r][c] + 1
        fp = FriezePattern(N, rows)
        problems = violations(fp)
        assert problems == violations_by_entry(fp) == violations_by_lattice(fp)
        assert problems and not any("glide" in p for p in problems)


@pytest.mark.parametrize("N", range(4, 13))
def test_glide_symmetric_rows_failing_only_in_the_middle(N):
    # row r holds min(r, N - r) throughout: the rule holds on each row but
    # the middle one (even N) or two (odd N), and the glide holds
    rows = [(min(r, N - r),) * N for r in range(N + 1)]
    fp = FriezePattern(N, rows)
    problems = violations(fp)
    assert problems == violations_by_entry(fp) == violations_by_lattice(fp)
    middle = {N // 2, (N + 1) // 2}
    assert [p.split(",")[0] for p in problems] == [
        f"rule fails at rows {r - 1}..{r + 1}" for r in sorted(middle) for _ in range(N)
    ]


def test_closed_recurrence_frieze_that_is_not_positive_is_scanned():
    # the all-zero quiddity has monodromy -I at order 6, so its recurrence
    # rows close, keep the rule and the glide, and end in a row of zeros:
    # only the band, rows of 0 and -1, tells it from a frieze
    q = (0,) * 6
    assert monodromy_is_minus_identity(q)
    fp = FriezePattern(6, (*_frieze_rows(q)[0], (0,) * 6))
    problems = violations(fp)
    assert problems == violations_by_entry(fp) == violations_by_lattice(fp)
    assert problems and all(p.startswith("band entry at row") for p in problems)
    assert len(problems) == 3 * 6


def test_period_divides_order():
    # once per distinct coupling cycle: its frieze's period is the cycle's
    for n in range(1, 9):
        members = set()
        for v in enumerate_all(n):
            if v not in members:
                c = minimal_cycle(complete_diamond(v))
                members.update(d.col1 for d in c.diamonds)
                fp = from_cycle(c)
                assert period(fp) == c.p
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
