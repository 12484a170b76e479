"""The three workloads: their inputs, their requests and their checks.

- ``sweep`` runs ``dyckfrieze.cli verify --n 8``, the exhaustive rank-8
  verification as users run it, once per fresh process.  Its time goes to
  triangulation rotations, coupling cycles and friezes at small N, over
  all 4,862 rank-8 objects.
- ``forward`` sends one random triangulation per rank in 16..64 through
  the forward chain (diamond, cycle, frieze, path, triangulation,
  quiddity, closing frieze, rotation orbit) in one long-lived process.
  Few objects, each large: O(N^2) and O(N^3) algorithms show.  It never
  touches ``enumeration`` or ``path_to_vector``.
- ``inverse`` sends 250 uniform random Dyck words at ranks 6..10 through
  ``parse_path`` and ``path_to_vector`` in a fresh process, so the lazy
  per-rank table build is paid as it is in every session.  The five first
  calls are 2 % of the requests, so p99 shows a table build (rank 8) and
  p50 a warm lookup.  It never touches cycles, friezes or orbits.

Each workload makes its seeded cases per round as ``(args, expected)``
pairs.  ``request(df, *args)`` is the timed call into the package ``df``;
``answer`` reduces its result to plain data right after the timer stops, so
large results are not kept; ``check(df, expected, answer)`` runs after the
round and returns a failure message, or None when the answer is right.
Expected values come from ``inputs``, which does not use the program; the
``inverse`` check alone calls the program, to map its vector back.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from inputs import (
    diagonal_vector,
    is_dyck_word,
    quiddity_by_degree,
    random_dyck_word,
    random_triangulation,
    rng_for,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY_CHECKS = 11


@dataclass(frozen=True)
class Sweep:
    n: int = 8

    def argv(self) -> list[str]:
        return ["verify", "--n", str(self.n)]

    def golden(self) -> bytes:
        """``verify`` stdout recorded from the program at the commit that
        introduced this benchmark."""
        return (GOLDEN / f"verify-n{self.n}.out").read_bytes()

    def cases(self, seed: int, round_index: int) -> list:
        return [((self.argv(),), None)]

    @staticmethod
    def request(df, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = df.cli.main(argv)
        return code, out.getvalue().encode()

    @staticmethod
    def answer(result):
        return result

    def check(self, df, expected, answer) -> str | None:
        exit_code, stdout = answer
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            checks = json.loads(stdout)["checks"]
        except (ValueError, KeyError, TypeError):
            return f"stdout is not verify JSON: {stdout[:200]!r}"
        failed = [c.get("name") for c in checks if c.get("pass") is not True]
        if len(checks) != VERIFY_CHECKS or failed:
            return f"{len(checks)} checks, failing: {failed}"
        if stdout != self.golden():
            return "stdout differs from the golden output"
        return None


@dataclass(frozen=True)
class Forward:
    ranks: tuple[int, ...] = tuple(range(16, 65))

    def cases(self, seed: int, round_index: int) -> list:
        """One uniform random triangulation per rank, in seeded order."""
        rng = rng_for(seed, "forward", round_index)
        ranks = list(self.ranks)
        rng.shuffle(ranks)
        cases = []
        for n in ranks:
            N = n + 3
            diagonals = random_triangulation(rng, N)
            q = quiddity_by_degree(N, diagonals)
            v = diagonal_vector(q)
            cases.append(((v,), {"N": N, "diagonals": diagonals, "q": q, "v": v}))
        return cases

    @staticmethod
    def request(df, v):
        d = df.complete_diamond(v)
        cycle = df.minimal_cycle(d)
        pattern = df.from_cycle(cycle)
        path = df.vector_to_path(v)
        t = df.vector_to_triangulation(v)
        q = df.quiddity(t)
        closes = df.verify(df.from_quiddity(q))
        orbit = df.rotation_orbit(t)
        return d, cycle, pattern, path, t, q, closes, orbit

    @staticmethod
    def answer(result) -> dict:
        d, cycle, pattern, path, t, q, closes, orbit = result
        return {
            "col1": tuple(d.col1),
            "heads": tuple(m.col1[0] for m in cycle.diamonds),
            "frieze_order": pattern.order,
            "frieze_quiddity": tuple(pattern.rows[2]),
            "word": path.word,
            "N": t.polygon_size,
            "diagonals": frozenset(t.diagonals),
            "q": tuple(q),
            "closes": closes,
            "orbit": len(orbit),
        }

    @staticmethod
    def check(df, expected, answer) -> str | None:
        N, q, v = expected["N"], expected["q"], expected["v"]
        heads = answer["heads"]
        p = len(heads)
        if answer["col1"] != v:
            return f"diamond first column {answer['col1']} != {v}"
        if answer["N"] != N or answer["diagonals"] != expected["diagonals"]:
            return f"triangulation of {v} is not the generated one"
        if answer["q"] != q:
            return f"quiddity {answer['q']} != {q}"
        if answer["closes"] is not True:
            return f"frieze of quiddity {q} does not verify"
        if p == 0 or N % p or not _is_rotation(heads * (N // p), q):
            return f"cycle heads {heads} are not a period of {q}"
        if answer["frieze_order"] != N or not _is_rotation(
            answer["frieze_quiddity"], q
        ):
            return f"cycle frieze of {v} has the wrong quiddity row"
        if answer["orbit"] != p:
            return f"rotation orbit has {answer['orbit']} members, cycle {p}"
        if not is_dyck_word(answer["word"], N - 2):
            return f"path {answer['word']!r} is not a Dyck word of half length {N - 2}"
        return None


def _is_rotation(seq: tuple, of: tuple) -> bool:
    return len(seq) == len(of) and any(
        seq == of[k:] + of[:k] for k in range(len(of))
    )


@dataclass(frozen=True)
class Inverse:
    ranks: tuple[int, ...] = tuple(range(6, 11))
    requests: int = 250

    def cases(self, seed: int, round_index: int) -> list:
        """``requests`` uniform Dyck words, ranks in equal shares, seeded
        order."""
        rng = rng_for(seed, "inverse", round_index)
        ranks = [self.ranks[i % len(self.ranks)] for i in range(self.requests)]
        rng.shuffle(ranks)
        cases = []
        for n in ranks:
            word = random_dyck_word(rng, n + 1)
            cases.append(((word, n), (word, n)))
        return cases

    @staticmethod
    def request(df, word, n):
        return df.path_to_vector(df.parse_path(word), n)

    @staticmethod
    def answer(result) -> tuple:
        return tuple(result)

    @staticmethod
    def check(df, expected, answer) -> str | None:
        """The vector completes to a diamond and maps back to the word."""
        word, n = expected
        if len(answer) != n or not all(type(x) is int and x > 0 for x in answer):
            return f"{answer} is not a positive rank-{n} vector"
        try:
            df.complete_diamond(answer)
            back = df.vector_to_path(answer).word
        except (df.InputError, df.InvariantViolation) as exc:
            return f"vector {answer} of {word}: {type(exc).__name__}: {exc}"
        if back != word:
            return f"vector {answer} of {word} maps back to {back}"
        return None


WORKLOADS = {"sweep": Sweep, "forward": Forward, "inverse": Inverse}


def name_of(config) -> str:
    return next(name for name, cls in WORKLOADS.items() if type(config) is cls)


def to_job(config) -> dict:
    return {"workload": name_of(config), "config": asdict(config)}


def from_job(job: dict):
    fields = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in job["config"].items()
    }
    return WORKLOADS[job["workload"]](**fields)
