"""The two kernel backends must agree exactly."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclat import _pykernels, kernels
from cyclat.oracle import enumerate_admitted

try:
    from cyclat import _ckernels
except ImportError:  # pragma: no cover - build-environment dependent
    _ckernels = None

compiled = pytest.mark.skipif(_ckernels is None,
                              reason="compiled kernels unavailable")

words = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


class TestPairIndex:
    def test_enumerates_row_major(self):
        n = 5
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for t, (i, j) in enumerate(pairs):
            assert _pykernels.pair_index(n, i, j) == t


def _join_by_pair_index(n, u, v):
    # the pure join_flat before its fill plan was cached, as a reference
    pair_index = _pykernels.pair_index
    out = [0] * (n * (n - 1) // 2)
    for d in range(2, n):
        for i in range(1, n - d + 1):
            j = i + d
            ij = pair_index(n, i, j)
            best = u[ij]
            if v[ij] > best:
                best = v[ij]
            for p in range(i + 1, j):
                cand = out[pair_index(n, i, p)] + out[pair_index(n, p, j)]
                if cand > best:
                    best = cand
            out[ij] = best
    return tuple(out)


def _meet_by_pair_index(n, u, v):
    pair_index = _pykernels.pair_index
    out = [0] * (n * (n - 1) // 2)
    for d in range(2, n):
        for i in range(1, n - d + 1):
            j = i + d
            ij = pair_index(n, i, j)
            best = u[ij]
            if v[ij] < best:
                best = v[ij]
            for p in range(i + 1, j):
                cand = out[pair_index(n, i, p)] + out[pair_index(n, p, j)] + 1
                if cand < best:
                    best = cand
            out[ij] = best
    return tuple(out)


def _admitted(n):
    """Admitted vectors of order n, as the vectors of cycles."""
    return st.permutations(list(range(1, n + 1))).map(
        lambda word: _pykernels.word_vector(tuple(word)))


vector_pairs = st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.tuples(st.just(n), _admitted(n), _admitted(n)))


class TestFillPlan:
    @given(vector_pairs)
    @settings(max_examples=200)
    def test_matches_pair_index_loop(self, case):
        n, u, v = case
        assert _pykernels.join_flat(n, u, v) == _join_by_pair_index(n, u, v)
        assert _pykernels.meet_flat(n, u, v) == _meet_by_pair_index(n, u, v)


class TestDuality:
    """v -> M - v, M[i,j] = j - i - 1, reverses the order (cycle
    inversion), so every meet is the dual of the join of the duals."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_meet_is_the_dual_join(self, n):
        top = tuple(j - i - 1 for i in range(1, n + 1) for j in range(i + 1, n + 1))

        def dual(v):
            return tuple(m - x for m, x in zip(top, v))

        flats = enumerate_admitted(n)
        for u in flats:
            for v in flats:
                assert kernels.meet_flat(n, u, v) == \
                    dual(kernels.join_flat(n, dual(u), dual(v)))


@compiled
class TestBackendAgreement:
    @given(words)
    @settings(max_examples=300)
    def test_word_functions(self, word):
        for name in ("canonical_rotation", "word_rank", "word_vector",
                     "word_descent_labels", "word_ascent_labels",
                     "word_covers_up", "word_covers_down", "descent_count"):
            py = getattr(_pykernels, name)(word)
            cy = getattr(_ckernels, name)(word)
            assert py == cy, name

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lattice_functions(self, n):
        flats = enumerate_admitted(n)
        for u in flats:
            for v in flats:
                assert _pykernels.join_flat(n, u, v) == \
                    _ckernels.join_flat(n, u, v)
                assert _pykernels.meet_flat(n, u, v) == \
                    _ckernels.meet_flat(n, u, v)
                assert _pykernels.leq_flat(u, v) == _ckernels.leq_flat(u, v)

    @given(st.integers(min_value=2, max_value=6),
           st.data())
    @settings(max_examples=150)
    def test_admitted_predicate(self, n, data):
        size = n * (n - 1) // 2
        flat = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                        min_size=size, max_size=size)))
        assert _pykernels.is_admitted_flat(n, flat) == \
            _ckernels.is_admitted_flat(n, flat)

    def test_compiled_rejects_oversized_orders(self):
        n = 80
        flat = (0,) * (n * (n - 1) // 2)
        with pytest.raises(ValueError):
            _ckernels.join_flat(n, flat, flat)

    @given(st.integers(min_value=1, max_value=7), st.data())
    @settings(max_examples=100)
    def test_sd_scan_on_arbitrary_tables(self, size, data):
        cell = st.integers(min_value=0, max_value=size - 1)
        table = st.lists(st.lists(cell, min_size=size, max_size=size)
                         .map(tuple), min_size=size, max_size=size).map(tuple)
        joins = data.draw(table)
        meets = data.draw(table)
        assert _pykernels.sd_scan(joins, meets) == \
            _ckernels.sd_scan(joins, meets)

    def test_sd_scan_on_real_tables(self):
        from itertools import product

        from cyclat.poset import build
        diagram = build(5)
        size = len(diagram.ranks)
        xs, ys = zip(*product(range(size), repeat=2))  # the square, row by row
        joins, meets = (tuple(zip(*[iter(square)] * size))
                        for square in diagram.bounds(xs, ys))
        assert _pykernels.sd_scan(joins, meets) is None
        assert _ckernels.sd_scan(joins, meets) is None


class TestBackendSelection:
    @staticmethod
    def _run_child(code, **env):
        """Run `code` in a fresh interpreter that imports this `cyclat`.

        The child sees only PATH, a PYTHONPATH that leads to the package
        under test, and `env`; the caller's CYCLAT_* variables stay out.
        """
        import os
        import subprocess
        import sys

        import cyclat
        paths = [os.path.dirname(os.path.dirname(cyclat.__file__))]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PATH": "/usr/bin:/bin",
                 "PYTHONPATH": os.pathsep.join(paths), **env},
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return out

    def test_forced_pure_backend(self):
        import cyclat
        # Unset, the child picks the compiled backend whenever it can
        # import it, so CYCLAT_PURE below overrides a real choice.
        default = (_pykernels if _ckernels is None else _ckernels).BACKEND
        out = self._run_child(
            "import cyclat; print(cyclat.BACKEND); print(cyclat.__file__)")
        assert out.stdout.splitlines() == [default, cyclat.__file__]
        out = self._run_child("import cyclat; print(cyclat.BACKEND)",
                              CYCLAT_PURE="1")
        assert out.stdout.strip() == "python"

    def test_default_backend_is_reported(self):
        from cyclat import kernels
        assert kernels.BACKEND in ("python", "cython")


class TestShippedC:
    """The tracked _ckernels.c must be generated from the tracked .pyx.

    Cython quotes the source around every statement it compiles as
    /* "cyclat/_ckernels.pyx":N ... */, marking line N with
    "# <<<<<<<<<<<<<<".  Without Cython the .c cannot be regenerated, so
    an edit to the .pyx alone would ship stale compiled kernels.
    """

    MARK = "             # <<<<<<<<<<<<<<"
    SOURCE = Path(__file__).resolve().parents[1] / "src" / "cyclat"

    def excerpts(self):
        text = (self.SOURCE / "_ckernels.c").read_text(encoding="utf-8")
        for match in re.finditer(r'/\* "cyclat/_ckernels\.pyx":(\d+)\n(.*?)\*/',
                                 text, re.S):
            marked = [line[3:-len(self.MARK)]
                      for line in match.group(2).splitlines()
                      if line.endswith(self.MARK)]
            yield int(match.group(1)), marked

    def test_marked_lines_match_the_pyx(self):
        pyx = (self.SOURCE / "_ckernels.pyx").read_text(encoding="utf-8").splitlines()
        excerpts = list(self.excerpts())
        assert len(excerpts) > 100
        for number, marked in excerpts:
            assert len(marked) == 1, number
            quoted = (marked[0]
                      .replace("*[inserted by cython to avoid comment closer]/", "*/")
                      .replace("/[inserted by cython to avoid comment start]*", "/*"))
            assert quoted == pyx[number - 1], number
