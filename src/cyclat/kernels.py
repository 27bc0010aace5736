"""The hot kernels, as one import point.

Re-exports the pure-Python kernels of `cyclat._pykernels`; `BACKEND`
names them ("python") for the benchmark's records.  The bodies live
apart so that a traced benchmark run wraps only these bindings: the
kernels' calls to each other stay inside the kernels layer.
"""

from __future__ import annotations

from cyclat._pykernels import (
    BACKEND,
    canonical_rotation,
    descent_count,
    is_admitted_flat,
    join_flat,
    leq_flat,
    meet_flat,
    pair_index,
    sd_scan,
    word_ascent_labels,
    word_covers_down,
    word_covers_up,
    word_descent_labels,
    word_rank,
    word_vector,
)
