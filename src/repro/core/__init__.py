"""The paper's primary contribution: the scale-free name-independent routing scheme.

Modules
-------
``params``
    Tunable constants of the construction (paper defaults + experiment presets).
``decomposition``
    Definitions 1–2: ranges ``a(u,i)``, neighborhoods ``A(u,i)``, dense/sparse
    levels, range sets ``L(u)``/``R(u)``, and the balls ``F(u,i)``/``E(u,i)``.
``landmarks``
    Claims 1–2 and Lemma 3: the landmark hierarchy ``C_0 ⊇ … ⊇ C_k``, ranks,
    nearby landmark sets ``S(u,i)``, and centers ``c(u,i)``.
``sparse_strategy`` / ``dense_strategy``
    Sections 3.1–3.3 and 3.4–3.6.
``scheme``
    The full iterative routing scheme of Theorem 1 (:class:`AGMRoutingScheme`).
``analysis``
    Evaluators for the theoretical bounds, used by benches and experiment kinds.
"""

from repro.core.params import AGMParams
from repro.core.decomposition import NeighborhoodDecomposition
from repro.core.landmarks import LandmarkHierarchy
from repro.core.scheme import AGMRoutingScheme

__all__ = [
    "AGMParams",
    "NeighborhoodDecomposition",
    "LandmarkHierarchy",
    "AGMRoutingScheme",
]
