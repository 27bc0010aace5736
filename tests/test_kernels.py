"""The kernels against their per-pair references, and the one backend."""

import pytest
from hypothesis import given, settings, strategies as st

from cyclat import _pykernels, kernels
from cyclat.oracle import enumerate_admitted


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


class TestBackendSelection:
    @staticmethod
    def _run_child(code):
        """Run `code` in a fresh interpreter that imports this `cyclat`.

        The child sees only PATH and a PYTHONPATH that leads to the
        package under test; the caller's CYCLAT_* variables stay out.
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
                 "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return out

    def test_import_loads_only_the_pure_kernels(self):
        out = self._run_child(
            "import sys, cyclat\n"
            "print(cyclat.BACKEND)\n"
            "print('cyclat._ckernels' in sys.modules)")
        assert out.stdout.splitlines() == ["python", "False"]

    def test_default_backend_is_reported(self):
        from cyclat import kernels
        assert kernels.BACKEND == "python"
