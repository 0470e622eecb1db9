"""Tree routing schemes.

Four schemes, all operating on a :class:`repro.graphs.trees.Tree`:

* :class:`IntervalTreeRouting` — classic DFS-interval routing (stretch 1,
  per-node space proportional to the node's degree).  Used as an addressing
  substrate by the Lemma 7 dictionary scheme and by baselines.
* :class:`CompactTreeRouting` — the labeled scheme of Lemma 5
  (Thorup–Zwick / Fraigniaud–Gavoille style): stretch 1,
  ``O(m^{1/k} log m)``-bit tables, ``O(k log m)``-bit labels.
* :class:`NameIndependentTreeRouting` — Lemma 4: name-independent
  error-reporting routing with ``j``-bounded searches from the root.
* :class:`DictionaryTreeRouting` — Lemma 7: name-independent error-reporting
  routing whose lookup cost is ``O(rad(T))``, used on cover trees; a
  :class:`DictionaryFamily` builds the dictionaries of many trees at once.
"""

from repro.trees.interval_routing import IntervalTreeRouting
from repro.trees.compact_labeled import CompactTreeRouting
from repro.trees.name_independent import NameIndependentTreeRouting, BoundedSearchResult
from repro.trees.error_reporting import DictionaryFamily, DictionaryTreeRouting

__all__ = [
    "IntervalTreeRouting",
    "CompactTreeRouting",
    "NameIndependentTreeRouting",
    "BoundedSearchResult",
    "DictionaryFamily",
    "DictionaryTreeRouting",
]
