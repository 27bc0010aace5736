"""Pure-Python kernels for the hot inner loops.

Mirrors `cyclat._ckernels` exactly; see `cyclat.kernels` for backend
selection.  Words are tuples of 1-based letters; triangular vectors are
flat tuples over pairs (i, j), 1 <= i < j <= n, in row-major order
(1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).
"""

from __future__ import annotations

from functools import lru_cache

BACKEND = "python"


def pair_index(n: int, i: int, j: int) -> int:
    """Flat index of the pair (i, j), 1 <= i < j <= n."""
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def canonical_rotation(word):
    """The unique rotation of `word` beginning with the letter 1."""
    k = word.index(1)
    return word[k:] + word[:k]


def word_rank(word):
    """Signed inversion count grading the circular-permutation order.

    Adjacent inversions (k+1 before k) are weighted k*(n-k); every
    inversion by value counts -1.  Invariant under rotation of `word`.
    """
    n = len(word)
    pos = [0] * (n + 1)
    for p, letter in enumerate(word):
        pos[letter] = p
    total = 0
    for k in range(1, n):
        if pos[k + 1] < pos[k]:
            total += k * (n - k)
    inversions = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if pos[j] < pos[i]:
                inversions += 1
    return total - inversions


def word_vector(word):
    """Flat triangular vector of `word`: v[i,j] = -inv(i,j) + sum of
    adjacent inversions (k, k+1) over i <= k < j.  Rotation-invariant."""
    n = len(word)
    pos = [0] * (n + 1)
    for p, letter in enumerate(word):
        pos[letter] = p
    # cum[m] = number of adjacent inversions (k, k+1) with k <= m
    cum = [0] * (n + 1)
    for k in range(1, n):
        cum[k] = cum[k - 1] + (1 if pos[k + 1] < pos[k] else 0)
    cum[n] = cum[n - 1]
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gamma = 1 if pos[j] < pos[i] else 0
            out.append(-gamma + cum[j - 1] - cum[i - 1])
    return tuple(out)


def word_descent_labels(word):
    """Labels (r, s), r+1 < s, of the large circular descents of (word):
    letters r whose cyclic predecessor s exceeds r by at least 2."""
    n = len(word)
    labels = []
    for t in range(n):
        s, r = word[t], word[(t + 1) % n]
        if s > r + 1:
            labels.append((r, s))
    labels.sort()
    return tuple(labels)


def word_ascent_labels(word):
    """Labels (r, s), r+1 < s, of the large circular ascents of (word):
    letters r whose cyclic successor s exceeds r by at least 2."""
    n = len(word)
    labels = []
    for t in range(n):
        r, s = word[t], word[(t + 1) % n]
        if s > r + 1:
            labels.append((r, s))
    labels.sort()
    return tuple(labels)


def _swap_cyclic(word, t):
    # swap positions t and t+1 (mod n), then rotate 1 back to the front
    n = len(word)
    u = list(word)
    t2 = (t + 1) % n
    u[t], u[t2] = u[t2], u[t]
    k = u.index(1)
    return tuple(u[k:] + u[:k])


def word_covers_up(word):
    """All ((r, s), word') with (word) -> (word'): each circular factor
    s r with s > r+1 is replaced by r s.  Sorted by label."""
    n = len(word)
    results = []
    for t in range(n):
        s, r = word[t], word[(t + 1) % n]
        if s > r + 1:
            results.append((r, s, _swap_cyclic(word, t)))
    results.sort()
    return tuple(results)


def word_covers_down(word):
    """All ((r, s), word') with (word') -> (word): each circular factor
    r s with s > r+1 is replaced by s r.  Sorted by label."""
    n = len(word)
    results = []
    for t in range(n):
        r, s = word[t], word[(t + 1) % n]
        if s > r + 1:
            results.append((r, s, _swap_cyclic(word, t)))
    results.sort()
    return tuple(results)


def descent_count(word):
    """Number of large circular descents of (word)."""
    n = len(word)
    count = 0
    for t in range(n):
        if word[t] > word[(t + 1) % n] + 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def _fill_plan(n):
    """((ij, ((ip, pj), ...)), ...): each pair (i, j) with j - i >= 2 by
    increasing j - i, with its splits (i, p), (p, j) for i < p < j, as
    flat indices."""
    return tuple(
        (pair_index(n, i, i + d),
         tuple((pair_index(n, i, p), pair_index(n, p, i + d))
               for p in range(i + 1, i + d)))
        for d in range(2, n) for i in range(1, n - d + 1))


def join_flat(n, u, v):
    """Least upper bound of two flat admitted vectors.

    X[i,j] = max(u[i,j], v[i,j], X[i,p] + X[p,j] for i < p < j),
    filled by increasing j - i.
    """
    out = [0] * (n * (n - 1) // 2)
    for ij, splits in _fill_plan(n):
        best = u[ij]
        if v[ij] > best:
            best = v[ij]
        for ip, pj in splits:
            cand = out[ip] + out[pj]
            if cand > best:
                best = cand
        out[ij] = best
    return tuple(out)


def meet_flat(n, u, v):
    """Greatest lower bound of two flat admitted vectors.

    X[i,j] = min(u[i,j], v[i,j], X[i,p] + X[p,j] + 1 for i < p < j),
    filled by increasing j - i.
    """
    out = [0] * (n * (n - 1) // 2)
    for ij, splits in _fill_plan(n):
        best = u[ij]
        if v[ij] < best:
            best = v[ij]
        for ip, pj in splits:
            cand = out[ip] + out[pj] + 1
            if cand < best:
                best = cand
        out[ij] = best
    return tuple(out)


def leq_flat(u, v):
    """Componentwise u <= v."""
    for a, b in zip(u, v):
        if a > b:
            return False
    return True


def is_admitted_flat(n, v):
    """True iff v has zero adjacent entries and every v[i,k] - v[i,j] - v[j,k]
    lies in {0, 1}."""
    for i in range(1, n):
        if v[pair_index(n, i, i + 1)] != 0:
            return False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vij = v[pair_index(n, i, j)]
            for k in range(j + 1, n + 1):
                d = v[pair_index(n, i, k)] - vij - v[pair_index(n, j, k)]
                if d != 0 and d != 1:
                    return False
    return True


def sd_scan(joins, meets):
    """First semidistributivity violation in the given join/meet tables.

    Scans triples (x, y, z) in lexicographic order; returns
    (x, y, z, law) for the first triple with x*y = x*z but
    x*y != x*(y wedge z) (law "SD-join"), dually for "SD-meet",
    or None if the tables are semidistributive.
    """
    size = len(joins)
    for x in range(size):
        jx, mx = joins[x], meets[x]
        for y in range(size):
            jxy, mxy = jx[y], mx[y]
            my, jy = meets[y], joins[y]
            for z in range(size):
                if jx[z] == jxy and jx[my[z]] != jxy:
                    return (x, y, z, "SD-join")
                if mx[z] == mxy and mx[jy[z]] != mxy:
                    return (x, y, z, "SD-meet")
    return None
