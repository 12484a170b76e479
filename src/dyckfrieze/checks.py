"""Cross-module invariant suite for a given rank.

Each check exercises one structural guarantee over the full rank-n
enumeration: counting, both bijections, cycle periods, frieze validity,
and the orbit/quiddity consistency between cycles and triangulations.

The sweep streams the rank-n vectors one coupling cycle at a time.  The
first vector of each cycle not yet visited gives its minimal cycle and the
cycle heads repeated N/p times, member 0's quiddity by the cycle theorem.
Every cycle starts in the first ballot row: member 0 is the cycle's least
member, and the heads, the members' first entries, are a period of a
triangulation's quiddity, which holds an ear's 1 as N >= 4, so member 0
starts with 1, among the first ``ballot_count(n, 1)`` = catalan(n) sorted
vectors.  Each member u is walked once by ``_walk``, from its reduced
profile and with no Dyck word or table, so at any rank: the profile m of
its path, the key of the path's triangulation and that triangulation's
quiddity q.  The walk composes the path maps' own steps: the profile
(``dyck._profile_of``), its descent encoding, the one ear clipper
``dyck._clip`` and ``degree_quiddity``.  The sweep reads the path's rank
off m, the sum of ``rows[i][m_i]`` over a table of ballot terms by
position and height (``dyck._ballot_rows``), which each sweep builds once,
before its first cycle.  Every member t is then checked in member 0's
frame: its quiddity rotated back by t must be the heads, and its
triangulation's key must be member 0's turned back by t, with member 0's
returning after p turns.  One list of member 0's N turns decides both that
orbit test and the cycle's class key.

One ``from_quiddity`` of the heads builds the cycle's one closed frieze,
and ``from_cycle``, which builds the band from the members unchecked, must
equal it, row 2 included.  When it does, the frieze decides the round
trip, quiddity and closure checks of each member t on the heads, whose q
rotated back by t is the heads.  Such a member closes with the frieze,
since ``from_quiddity`` reads columns cyclically, so a rotation closes iff
it does.  Its round trip is ``diagonal(q, 0, n + 2)[2:] == u``, as
``path_to_vector`` is exactly that composition, and q is the heads turned
by t, so that diagonal is ``diagonal(heads, t, n + 2)``: column t of the
frieze, whose entry (r, c) is ``diagonal(heads, c, N)[r]``
(``diamond._frieze_rows``), where ``from_cycle`` lays out u as rows
2..n + 1.  Only a member off the heads, which fails its own check, or in a
cycle whose band fails, gets its own round trip, quiddity check and
``from_quiddity``.  So a passing sweep calls no ``diagonal``, and runs the
frieze kernel twice per cycle, in ``minimal_cycle`` and in
``from_quiddity``.

Everything built for a cycle is dropped once the cycle is done.  Across
cycles the sweep keeps only compact keys: a ``bytearray`` over the sorted
vectors marks the cycle members seen, a ``bytearray`` over path ranks
(``all_paths`` order) marks the image of the path map, and one class key
per cycle decides the injectivity of the triangulation map.  A
triangulation's key (``_key``) has one block of D = N//2 - 1 bits per
vertex and one bit per diagonal: the end x whose partner lies e steps on,
2 <= e <= N/2, sets bit e - 2 of block x, and a diameter, e = N/2, sets
it at both ends.  Each bit names one diagonal, and adding k to every label
moves each bit k blocks on, so it turns the N·D bits cyclically by k·D.
Turning is an action of Z/N on N·D-bit keys, and ``_key`` sets no bit at
or above N·D, so member t's key turned by t is member 0's exactly when it
is member 0's turned back by t, entry t of the list of member 0's key
turned back by k = 0..N-1.  A cycle's class key is the least of member
0's turns, the least entry of that same list.
A cycle that passes the orbit check holds the whole rotation class of
member 0, so two such cycles share a triangulation only when they share
a class key, and each new class key adds its cycle's distinct keys to
the count of triangulations.  The same pass tallies the cycles by period,
a histogram that must equal the count of rotational symmetries
(``_period_counts``), and so counts the members walked, p for a cycle of
period p.  Two checks are decided by counting.  Each member walked sets
one rank byte, so the path map is injective exactly when the bytes set
number the members walked.  Each vector not yet marked starts its own
cycle as member 0 (``minimal_cycle`` raises otherwise), so the marks set
number the distinct vectors, and the members that set no mark are those
missing from the enumeration or met again.  So the cycles partition the
enumeration exactly when the members walked number the vectors: the
second copy of a vector enumerated twice is never marked, and starts a
second copy of its cycle, whose p > 1 members are all met again.  The
vectors' first entries are tallied by z, a row that must equal
``ballot_count(n, z)``.

Where it can, the sweep runs on two CPUs.  The number of cycles C is known
before any is built, the triangulations up to rotation
(``_period_counts``).  From C = 49, rank 6 (below it the fork costs more
than it saves), ``run_checks`` splits the cycles in scan order at
s = ⌈4C/7⌉: this process checks cycles 0 to s - 1 and stops, and one
forked child checks the rest, after only marking the members of the first
s, and sends back its result through a pipe as ``marshal`` bytes.  Both
scan the same sorted vectors and number the cycles alike, so each cycle is
checked once, by one of the two, and the merge is exact: the rank marks
are ORed, the period tallies added and the flags ANDed.  Each member
walked sets its rank byte in the process that walks it, so the union of
the two sets of ranks, against the members walked in both, decides
injectivity across the shares as within one.  Each class key counts the
distinct keys of the first cycle that holds it, and every cycle of this
process comes before every cycle of the child, so the count is the
one-process count.  Every result and detail is therefore the one-process
sweep's, which runs below rank 6 and where there is no ``os.fork``, one
CPU, or another live thread.  The child leaves by ``os._exit`` whatever
happens, so it flushes no inherited buffer and never returns to the
caller; if it fails, this process sweeps its share itself, so that an
exception is raised as it would be in one process.  If the pipe or the
fork itself fails (EAGAIN, ENOMEM, EMFILE), this process closes what it
opened and sweeps every cycle in one process.
"""

from __future__ import annotations

import marshal
import os
import sys
from bisect import bisect_left
from collections import Counter
from operator import getitem

from .diamond import complete_diamond, cycle_heads, diagonal, minimal_cycle
from .dyck import _ballot_rows, _clip, _descents, _profile_of, catalan, degree_quiddity
from .enumeration import ballot_count, enumerate_all
from .errors import InputError, Record
from .frieze import from_cycle, from_quiddity

# the fewest cycles worth a fork: split on two CPUs, the sweep wins at
# rank 6's 49 cycles (6.6 against 7.5 ms) and loses at rank 5's 19 (3.1
# against 2.3 ms), with the enumeration cached
_FORK_FROM = 49


class CheckResult(Record):
    """The outcome of one named check, with a diagnostic when it has one."""

    __match_args__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._fill(name, passed, detail)


def _key(diagonals, N: int) -> int:
    """Key of the triangulation of the N-gon with these diagonals, each
    ``(low, high)``: one block of D = N//2 - 1 bits per vertex.  A diagonal
    of span d = high - low sets bit e - 2 of the block of the end x whose
    partner lies e = min(d, N - d) steps on; a diameter, d = N/2, sets it
    at both ends."""
    D = N // 2 - 1
    key = 0
    for a, b in diagonals:
        d = b - a
        if d + d <= N:  # b lies d steps on from a
            key |= 1 << a * D + d - 2
        if d + d >= N:  # a lies N - d steps on from b
            key |= 1 << b * D + N - d - 2
    return key


def _turn(key: int, k: int, N: int) -> int:
    """Key of the triangulation with every label moved up by k modulo N."""
    D = N // 2 - 1
    shift = k % N * D
    return ((key << shift) | (key >> N * D - shift)) & ((1 << N * D) - 1)


def _walk(u: tuple[int, ...]) -> tuple[list[int], int, tuple[int, ...]]:
    """``(profile, key, quiddity)`` of the path of a diamond vector ``u``
    that the caller built itself, by the path maps' own steps and with no
    Dyck word or table, at any rank."""
    m = _profile_of(u)
    N = len(u) + 3
    diagonals = _clip(_descents(m, N - 3))
    return m, _key(diagonals, N), degree_quiddity(N, diagonals)


def _period_counts(N: int) -> Counter:
    """Coupling cycles of rank N - 3 by period.  A rotation fixing a
    triangulation fixes the polygon's centre, which then lies on a diameter
    (period N/2, the two halves alike) or inside a triangle with a vertex
    every N/3 (period N/3, the three thirds alike); every other cycle has
    period N."""
    counts = Counter()
    rest = catalan(N - 2)  # triangulations not yet counted
    for d in (2, 3):
        if N % d == 0:
            counts[N // d] = catalan(N // d - 1)
            rest -= N // d * counts[N // d]
    counts[N] = rest // N
    return counts


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _sweep(vectors, n: int, skip: int, stop: int | None) -> tuple:
    """Scan the sorted vectors, numbering the coupling cycles as they are
    met: only mark the members of cycles below ``skip``, check cycles
    ``skip`` to ``stop - 1`` and stop at cycle ``stop``.  Returns the path
    ranks hit, each new class key with its cycle's distinct keys, the
    periods tallied and five flags, all of plain types, which ``marshal``
    takes.  No rank or mark is tested for a repeat.  Each member of a
    checked cycle sets one rank byte, so over the whole scan the ranks are
    distinct exactly when the bytes set number the members walked, p for
    each cycle of period p.  Every vector but the second copy of a repeat
    is marked, and a member missing from the vectors or met again sets no
    mark, so the members walked number the vectors exactly when the cycles
    partition them."""
    N = n + 3
    rows = _ballot_rows(n + 1)  # a profile m ranks as the sum of rows[i][m_i]
    visited = bytearray(len(vectors))
    ranks = bytearray(catalan(n + 1))
    classes = {}  # class key -> distinct keys of its first cycle
    cycles = 0
    periods = Counter()  # period -> cycles with that period
    roundtrip_ok = friezes_ok = quiddity_ok = orbit_ok = closes_ok = True

    for index, v in enumerate(vectors):
        if visited[index]:
            continue
        if cycles == stop:
            break
        cycles += 1
        c = minimal_cycle(complete_diamond(v))
        for d in c.diamonds:
            at = bisect_left(vectors, d.col1)
            if at < len(vectors) and vectors[at] == d.col1:
                visited[at] = 1
        if cycles <= skip:
            continue
        p = c.p
        periods[p] += 1
        heads = cycle_heads(c) * (N // p)  # member 0's q, by the cycle theorem
        try:  # one frieze: the band's, and each check of a member on the heads
            friezes_ok &= (band := from_cycle(c) == from_quiddity(heads))
        except InputError:
            band = friezes_ok = closes_ok = False
        orbit = []  # the members' triangulation keys
        for offset, d in enumerate(c.diamonds):
            u = d.col1
            m, key, q = _walk(u)
            ranks[sum(map(getitem, rows, m))] = 1

            back = q[-offset:] + q[:-offset]  # q in member 0's frame
            if back != heads or not band:  # else the band decided all three
                roundtrip_ok &= diagonal(q, 0, n + 2)[2:] == u
                quiddity_ok &= back == heads
                try:
                    from_quiddity(back)
                except InputError:
                    closes_ok = False
            orbit.append(key)

        # member 0 turned back by each k: member t is its turn back by t,
        # and member 0 returns after p turns
        turns = [_turn(orbit[0], -k, N) for k in range(N)]
        orbit_ok &= len(set(orbit)) == p and orbit == turns[:p]
        orbit_ok &= turns[p % N] == orbit[0]
        # cycles whose orbits pass hold whole rotation classes, one class each
        least = min(turns)
        if least not in classes:
            classes[least] = len(set(orbit))

    ok = (roundtrip_ok, friezes_ok, quiddity_ok, orbit_ok, closes_ok)
    return ranks, classes, dict(periods), ok


def _split(vectors, n: int, share: int) -> list[tuple]:
    """The sweep of cycles below ``share`` here and of the rest in one
    forked child, which sends its result back through a pipe.  If the
    child fails, this process sweeps its share, so that any exception is
    raised here as in one process; if this process's share raises, the
    child is killed and reaped first.  With no pipe or no child to be had,
    this process sweeps every cycle itself, as the fork only saves time."""
    fds = ()
    try:
        fds = read, write = os.pipe()
        pid = os.fork()
    except OSError:  # EAGAIN, ENOMEM, EMFILE: close what was opened
        for fd in fds:
            os.close(fd)
        return [_sweep(vectors, n, 0, None)]
    if pid == 0:
        try:  # never flush inherited buffers or return to the caller
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(_sweep(vectors, n, share, None)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            mine = _sweep(vectors, n, 0, share)
            sent = pipe.read()
        except BaseException:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            raise
    if os.waitpid(pid, 0)[1] == 0:  # then the child sent all its result
        return [mine, marshal.loads(sent)]
    return [mine, _sweep(vectors, n, share, None)]


def run_checks(n: int) -> list[CheckResult]:
    """Run every rank-n check and report one result per check."""
    vectors = enumerate_all(n)
    expected = catalan(n + 1)
    N = n + 3
    want = _period_counts(N)

    cycles = sum(want.values())
    # marking a cycle costs about a quarter of checking it: split at 4/7
    share = -(-4 * cycles // 7)
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1  # one thread
    if cycles >= _FORK_FROM and hasattr(os, "fork") and alone and _cpus() > 1:
        sweeps = _split(vectors, n, share)
    else:
        sweeps = [_sweep(vectors, n, 0, None)]

    seen = 0
    classes = {}  # the first cycle's distinct keys for each class key
    periods = Counter()
    for ranks, keys, tally, _ in sweeps:
        seen |= int.from_bytes(ranks, "big")
        periods.update(tally)
        classes = keys | classes  # an earlier sweep met a shared class first
    ok = map(all, zip(*(sweep[-1] for sweep in sweeps)))  # each flag, all sweeps
    roundtrip_ok, friezes_ok, quiddity_ok, orbit_ok, closes_ok = ok
    distinct = seen.bit_count()
    triangulations = sum(classes.values())
    walked = sum(p * cycles for p, cycles in periods.items())  # p members each
    firsts = Counter(v[0] for v in vectors)  # first entry z -> vectors
    row = Counter({z: ballot_count(n, z) for z in range(1, n + 2)})
    off = min(row - firsts | firsts - row, default=None)  # first z that differs
    odd = min(want - periods | periods - want, default=None)  # first that differs
    return [
        CheckResult(
            "enumeration_count",
            len(vectors) == expected,
            f"count={len(vectors)} expected={expected}",
        ),
        CheckResult(
            "path_map_injective",
            distinct == walked,
            f"distinct={distinct} of {walked}",
        ),
        CheckResult(
            "path_map_image_complete",
            distinct == expected,
            f"image={distinct} paths={expected}",
        ),
        CheckResult("path_map_roundtrip", roundtrip_ok),
        # Cycle refuses a period that does not divide N, so what is left to
        # check is that the cycles partition the enumeration, with as many
        # of each period as the rotational symmetries allow
        CheckResult(
            "cycle_period_divides",
            walked == len(vectors) and odd is None,
            f"period={odd} cycles={periods[odd]} expected={want[odd]}"
            if odd
            else f"order={N}",
        ),
        CheckResult("frieze_from_cycle_valid", friezes_ok),
        CheckResult(
            "triangulation_map_injective",
            triangulations == expected,
            f"distinct={triangulations} expected={expected}",
        ),
        CheckResult("quiddity_matches_heads", quiddity_ok),
        CheckResult("cycle_orbit_consistent", orbit_ok),
        CheckResult("quiddity_friezes_close", closes_ok),
        CheckResult(
            "ballot_row_sum",
            off is None,
            f"z={off} count={firsts[off]} ballot={row[off]}"
            if off
            else f"expected={expected}",
        ),
    ]
