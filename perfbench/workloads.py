"""The three workloads, their inputs and the checks on their outputs.

Each workload is a closed loop with one client: the next operation
starts when the previous one has returned.  A workload is a fixed list
of operations, `ops`, that the runner cycles through until the run's
time is up.  Every operation's output is checked without trusting the
operation under test.

- diagram:  `cyclat poset 8` exported as JSON and then as DOT, timed;
            `cyclat poset 9` likewise once per run.
- verify:   the ten checks of `cyclat check all 6`, one at a time.
- elements: pointwise queries on single elements at n = 8..24.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# One n = 9 export takes 3-5 s, too few repeats in a run for a steady
# figure on a shared host; n = 8 takes 0.2 s.  The n = 9 exports
# run once per run, which sets the peak memory and checks the digests.
DIAGRAM_N = 8
DIAGRAM_FULL_N = 9
# SHA-256 of the exports, as the first benchmarked commit wrote them.
EXPORT_DIGESTS = {
    (8, "json"): "3a6375a671cf336781579edb294fa4de67dd5b46b11f34eda4431473d5e7781f",
    (8, "dot"): "0fc6c970f2bb628955b946496265a924e1e310adb1701f1b35db10ff1030d179",
    (9, "json"): "e36e1bd090fee10fdb594114d7e0003bb6f7cd3bc9bdfda66fd6c95c1b119988",
    (9, "dot"): "4d53928f5b378f146dd06d981c5bacc12f1d10336fffb35cdfd80e361ca083e2",
}

# `check all 7` takes about 67 s on the pure backend, more than one run
# may last; n = 6 runs every check exhaustively in about 3 s.
VERIFY_N = 6
CHECK_NAMES = ("grading", "eulerian", "lattice", "mobius", "semidistributive",
               "modularity", "young", "triangulation", "interval", "alpha")
MODULARITY_WITNESSES = {
    6: {"x": "(1,2,3,4,6,5)", "y": "(1,2,4,3,5,6)", "meet": "(1,2,3,6,4,5)",
        "join": "(1,2,4,6,3,5)", "ranks": [4, 8, 3, 11]},
    7: {"x": "(1,2,3,4,5,7,6)", "y": "(1,2,3,5,4,6,7)", "meet": "(1,2,3,4,7,5,6)",
        "join": "(1,2,3,5,7,4,6)", "ranks": [5, 11, 4, 15]},
}

ELEMENT_ORDERS = (8, 12, 16, 24)
FORMS = ("cycle", "vector", "window")
QUERY_KINDS = ("convert", "join", "meet", "rank", "covers", "compare")
ELEMENT_REPEATS = 80   # queries per (kind, order), each repeated until time is up


@dataclass
class Op:
    """One request: `run` is the timed call into the program and
    `check` returns an error message for a wrong output, else None."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def import_program() -> SimpleNamespace:
    """Import the program's modules the way a user of the library would."""
    import cyclat
    from cyclat import affine, checks, cli, oracle, perm, poset, vectors

    return SimpleNamespace(cyclat=cyclat, affine=affine, checks=checks, cli=cli,
                           oracle=oracle, perm=perm, poset=poset, vectors=vectors)


# -- diagram ---------------------------------------------------------------


def export_digest_error(path: Path, n: int, fmt: str) -> str | None:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    pinned = EXPORT_DIGESTS[n, fmt]
    return None if digest == pinned else f"n={n} {fmt} export digest {digest} != {pinned}"


class Workload:
    """A fixed list of operations, `ops`, and what runs after them."""

    ops: list[Op]

    def final_ops(self) -> list[Op]:
        """Operations run once after the loop, outside the gated metrics."""
        return []

    def close(self) -> None:
        """Remove what the operations wrote."""


class Diagram(Workload):
    """Both exports of the whole diagram through the CLI.  The inputs are
    fixed by the order, so the seed changes nothing."""

    def __init__(self, program: SimpleNamespace, seed: int, out_dir: Path):
        self.cli = program.cli
        self.paths = {fmt: out_dir / f"diagram-{seed}.{fmt}" for fmt in ("json", "dot")}
        self.ops = [self._op(DIAGRAM_N, "json"), self._op(DIAGRAM_N, "dot")]

    def _op(self, n: int, fmt: str) -> Op:
        path = self.paths[fmt]
        argv = ["poset", str(n), "--format", fmt, "--out", str(path)]

        def check(code):
            if code != 0:
                return f"cyclat {' '.join(argv)} exited {code}"
            return export_digest_error(path, n, fmt)
        kind = f"poset.{fmt}" if n == DIAGRAM_FULL_N else f"poset{n}.{fmt}"
        return Op(kind, lambda: self.cli.main(argv), check)

    def final_ops(self) -> list[Op]:
        return [self._op(DIAGRAM_FULL_N, "json"), self._op(DIAGRAM_FULL_N, "dot")]

    def close(self) -> None:
        for path in self.paths.values():
            path.unlink(missing_ok=True)


# -- verify ----------------------------------------------------------------


class Verify(Workload):
    """The checks of `checks.CHECKS` in `run_all` order, each called
    through `checks.run_check`.  The checks seed themselves."""

    def __init__(self, program: SimpleNamespace, seed: int, out_dir: Path):
        self.checks = program.checks
        self.ops = [self._op(name, VERIFY_N) for name in CHECK_NAMES]

    def _op(self, name: str, n: int) -> Op:
        def check(report):
            if not report.passed:
                return f"check {name} {n} failed: {report.witness}"
            if name == "modularity" and report.witness != MODULARITY_WITNESSES[n]:
                return f"modularity {n} witness {report.witness}"
            return None
        kind = f"check.{name}" if n == VERIFY_N else f"check{n}.{name}"
        return Op(kind, lambda: self.checks.run_check(name, n), check)

    def final_ops(self) -> list[Op]:
        """The pinned witness one order up."""
        return [self._op("modularity", 7)]


# -- elements --------------------------------------------------------------
# The reference helpers below recompute from definitions what the
# program computes, so that a query's answer is not checked against the
# code that produced it.


def word_vector(word: tuple[int, ...]) -> tuple[int, ...]:
    """v[i,j]: adjacent inversions (k, k+1), i <= k < j, minus the (i, j)
    inversion bit, row-major over i < j."""
    n = len(word)
    pos = {letter: p for p, letter in enumerate(word)}
    cum = [0] * (n + 1)
    for k in range(1, n):
        cum[k] = cum[k - 1] + (pos[k + 1] < pos[k])
    return tuple(cum[j - 1] - cum[i - 1] - (pos[j] < pos[i])
                 for i in range(1, n + 1) for j in range(i + 1, n + 1))


def vector_rows(n: int, flat: tuple[int, ...]) -> list[list[int]]:
    rows, t = [], 0
    for i in range(1, n):
        rows.append(list(flat[t:t + n - i]))
        t += n - i
    return rows


def window_entries(n: int, flat: tuple[int, ...]) -> tuple[int, ...]:
    """a_i = i + sum over p < i of v[p,i] - sum over p > i of v[i,p]."""
    rows = vector_rows(n, flat)

    def v(i, j):
        return rows[i - 1][j - i - 1]
    return tuple(i + sum(v(p, i) for p in range(1, i))
                 - sum(v(i, p) for p in range(i + 1, n + 1))
                 for i in range(1, n + 1))


def canonical(word: tuple[int, ...]) -> tuple[int, ...]:
    k = word.index(1)
    return word[k:] + word[:k]


def exchange(word: tuple[int, ...], r: int, s: int) -> tuple[int, ...]:
    """The cycle conjugated by the transposition (r s)."""
    swap = {r: s, s: r}
    return canonical(tuple(swap.get(a, a) for a in word))


def reference_covers(word: tuple[int, ...], up: bool) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
    """Covers by definition: above, a label (r, s) for each letter r whose
    cyclic predecessor s exceeds r + 1; below, for each r whose cyclic
    successor s does.  The cover is the conjugate by (r s)."""
    n = len(word)
    pairs = [(word[(t + 1) % n], word[t]) if up else (word[t], word[(t + 1) % n])
             for t in range(n)]
    return sorted(((r, s), exchange(word, r, s)) for r, s in pairs if s > r + 1)


def componentwise(u: tuple[int, ...], v: tuple[int, ...]) -> str:
    le = all(a <= b for a, b in zip(u, v))
    ge = all(a >= b for a, b in zip(u, v))
    return "EQ" if le and ge else "LT" if le else "GT" if ge else "INCOMPARABLE"


@dataclass(frozen=True)
class Element:
    word: tuple[int, ...]         # canonical
    flat: tuple[int, ...]
    text: str                     # in the form the query hands the program


def make_element(rng: random.Random, word: tuple[int, ...]) -> Element:
    n = len(word)
    flat = word_vector(word)
    form = rng.choice(FORMS)
    if form == "cycle":
        k = rng.randrange(n)
        text = "(" + ",".join(map(str, word[k:] + word[:k])) + ")"
    elif form == "vector":
        text = json.dumps(vector_rows(n, flat), separators=(",", ":"))
    else:
        text = "[" + ",".join(map(str, window_entries(n, flat))) + "]"
    return Element(word, flat, text)


def random_word(rng: random.Random, n: int) -> tuple[int, ...]:
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    return (1, *rest)


def walk_up(rng: random.Random, word: tuple[int, ...], steps: int) -> tuple[int, ...]:
    for _ in range(steps):
        covers = reference_covers(word, up=True)
        if not covers:
            break
        word = rng.choice(covers)[1]
    return word


class Elements(Workload):
    """Seeded single-element queries: ELEMENT_REPEATS of every kind in
    QUERY_KINDS at every order in ELEMENT_ORDERS, in random order, each
    input in a form drawn uniformly from FORMS.  Most orders are above
    the diagram cap."""

    def __init__(self, program: SimpleNamespace, seed: int, out_dir: Path):
        self.p = program
        rng = random.Random(seed)
        # equal counts of every kind and order keep the mix, and with it
        # the total work, the same for every seed
        plan = [(kind, n) for kind in QUERY_KINDS for n in ELEMENT_ORDERS] * ELEMENT_REPEATS
        rng.shuffle(plan)
        self.ops = [self._query(rng, kind, n) for kind, n in plan]

    def _query(self, rng: random.Random, kind: str, n: int) -> Op:
        x = make_element(rng, random_word(rng, n))
        p = self.p
        if kind == "convert":
            to = rng.choice(FORMS)

            def run():
                return p.cli.render_element(p.cli.parse_element(x.text)[1], to)

            def check(out):
                return None if p.cli.parse_element(out)[1].flat == x.flat else \
                    f"convert {x.text} to {to} gave {out}"
            return Op(kind, run, check)
        if kind == "rank":
            def check(rank):
                length = p.affine.length(p.affine.AffineWindow(window_entries(n, x.flat)))
                return None if rank == length else f"rank {x.text} = {rank} != {length}"
            return Op(kind, lambda: p.cli.parse_element(x.text)[1].rank, check)
        if kind == "covers":
            def run():
                sigma = p.vectors.vector_to_cycle(p.cli.parse_element(x.text)[1])
                return ([((lab.r, lab.s), tau.canon) for lab, tau in p.perm.covers_up(sigma)],
                        [((lab.r, lab.s), tau.canon) for lab, tau in p.perm.covers_down(sigma)])

            expected = (reference_covers(x.word, up=True), reference_covers(x.word, up=False))
            return Op(kind, run, lambda out: None if (sorted(out[0]), sorted(out[1])) == expected
                      else f"covers of {x.text} gave {out}")
        # two-element queries; for compare, a third of the pairs are
        # related by a walk up the covers so that not every answer is
        # INCOMPARABLE
        relation = rng.randrange(3) if kind == "compare" else 0
        if relation:
            above = walk_up(rng, x.word, rng.randrange(4))
            y = make_element(rng, above)
            if relation == 2:
                x, y = y, x
        else:
            y = make_element(rng, random_word(rng, n))
        if kind == "compare":
            expected = componentwise(x.flat, y.flat)

            def run():
                sigma = p.vectors.vector_to_cycle(p.cli.parse_element(x.text)[1])
                tau = p.vectors.vector_to_cycle(p.cli.parse_element(y.text)[1])
                return p.poset.compare(sigma, tau).value
            return Op(kind, run, lambda out: None if out == expected
                      else f"compare {x.text} {y.text} gave {out}, expected {expected}")
        bound = "LT" if kind == "join" else "GT"

        def run():
            form, u = p.cli.parse_element(x.text)
            _, v = p.cli.parse_element(y.text)
            result = getattr(p.vectors, kind)(u, v)
            return result.flat, p.cli.render_element(result, form)

        def check(out):
            flat, text = out
            for z in (x, y):
                if componentwise(z.flat, flat) not in (bound, "EQ"):
                    return f"{kind} of {x.text} {y.text} is not a bound of {z.text}"
            if p.cli.parse_element(text)[1].flat != flat:
                return f"{kind} rendered {text} does not parse back"
            return None
        return Op(kind, run, check)


WORKLOADS = {"diagram": Diagram, "verify": Verify, "elements": Elements}
