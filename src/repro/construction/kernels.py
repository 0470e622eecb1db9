"""Array kernels for the construction hot loops.

The **ancestor closure** behind
:meth:`~repro.construction.context.BuildContext.spt_trees`: restricting a
per-chunk SPT forest row to a member set keeps every member's parent chain.
The closure advances a whole frontier of parent pointers per iteration, so
the work is a handful of numpy gathers per tree level instead of a Python
walk per member.
"""

from __future__ import annotations

import numpy as np


def ancestor_closure(members: np.ndarray, parent: np.ndarray,
                     keep: np.ndarray) -> np.ndarray:
    """Mark the ancestor closure of ``members`` in ``keep`` (in place).

    ``parent`` maps node -> predecessor (negative at roots, as in SciPy's
    predecessor rows); ``keep`` may already hold nodes (chains stop there).
    Returns ``keep``.
    """
    frontier = np.asarray(members, dtype=np.int64)
    while frontier.size:
        fresh = frontier[~keep[frontier]]
        if fresh.size == 0:
            break
        keep[fresh] = True
        parents = parent[fresh]
        frontier = np.unique(parents[parents >= 0])
    return keep
