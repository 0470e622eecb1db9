"""Declarative experiment specs: config files resolved into runnable grids.

A spec is a small mapping — loaded from JSON always, or TOML where the
stdlib ``tomllib`` exists (3.11+; the CI fast-unit matrix still includes
3.10, so every *committed* config is JSON) — with four meaningful keys:

``name``
    Result-directory stem; also the merged table's title.
``kind``
    Which experiment body to run — one of
    :data:`repro.experiments.matrix.kinds.KIND_NAMES`.  The six historical
    ``exp_*`` entry points are kinds (``comparison``, ``tradeoff``, ...);
    ``grid`` / ``traffic`` / ``live`` are the general matrix kinds that
    compose a graph source x scheme grid x traffic model x churn scenario.
``seeds``
    Run seeds; the runner materializes one result directory per seed and
    merges the tables.  Threaded all the way into the graph draw via
    ``WorkloadSpec.build(seed_offset=seed)`` — a seed sweep really re-draws
    the workload now instead of re-measuring one pinned graph.
``params``
    Keyword arguments for the kind body, verbatim except for the documented
    conveniences (``{"quick": a, "full": b}`` size pairs, count strings like
    ``"50k"``, and AGM parameter presets by name).

Everything else (``description``, ``quick``) is optional.  Specs are
deliberately dumb data: resolution of graph sources, scheme kwargs and
packet budgets happens in :mod:`repro.experiments.matrix.kinds` at run
time, so one config runs at quick and full sizes without edits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "MatrixSpec",
    "load_spec",
    "spec_from_mapping",
    "spec_fingerprint",
    "parse_count",
    "pick_size",
]

_TOP_LEVEL_KEYS = {"name", "kind", "seeds", "quick", "params", "description"}


@dataclass(frozen=True)
class MatrixSpec:
    """One validated experiment config."""

    name: str
    kind: str
    seeds: Tuple[int, ...] = (0,)
    quick: Optional[bool] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""
    source: Optional[str] = None

    def resolved_quick(self, override: Optional[bool] = None) -> bool:
        """The quick/full mode for a run: CLI override > spec > quick."""
        if override is not None:
            return bool(override)
        if self.quick is not None:
            return bool(self.quick)
        return True


def _load_mapping(path: Path) -> Dict[str, Any]:
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - 3.10 fallback path
            raise RuntimeError(
                f"{path.name}: TOML configs need the stdlib 'tomllib' "
                "(Python 3.11+); re-save the config as JSON to run it here"
            ) from exc
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def spec_from_mapping(data: Mapping[str, Any],
                      source: Optional[str] = None) -> MatrixSpec:
    """Validate a raw mapping into a :class:`MatrixSpec`."""
    from repro.experiments.matrix.kinds import KIND_NAMES

    where = source or "<mapping>"
    if not isinstance(data, Mapping):
        raise ValueError(f"{where}: config must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValueError(f"{where}: unknown top-level keys {sorted(unknown)}; "
                         f"allowed: {sorted(_TOP_LEVEL_KEYS)}")
    for key in ("name", "kind"):
        if not isinstance(data.get(key), str) or not data.get(key):
            raise ValueError(f"{where}: required key {key!r} missing or not a string")
    kind = data["kind"]
    if kind not in KIND_NAMES:
        raise ValueError(f"{where}: unknown kind {kind!r}; "
                         f"choose from {sorted(KIND_NAMES)}")
    seeds_raw = data.get("seeds", [0])
    if isinstance(seeds_raw, (int, float)):
        seeds_raw = [seeds_raw]
    if (not isinstance(seeds_raw, Sequence) or isinstance(seeds_raw, (str, bytes))
            or not seeds_raw or not all(isinstance(s, int) for s in seeds_raw)):
        raise ValueError(f"{where}: 'seeds' must be a non-empty list of ints")
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(f"{where}: 'params' must be a mapping")
    quick = data.get("quick")
    if quick is not None and not isinstance(quick, bool):
        raise ValueError(f"{where}: 'quick' must be a boolean when present")
    return MatrixSpec(
        name=data["name"],
        kind=kind,
        seeds=tuple(int(s) for s in seeds_raw),
        quick=quick,
        params=dict(params),
        description=str(data.get("description", "")),
        source=source,
    )


def load_spec(path: Union[str, Path]) -> MatrixSpec:
    """Load and validate a config file (.json always; .toml on 3.11+)."""
    path = Path(path)
    return spec_from_mapping(_load_mapping(path), source=str(path))


def _canonical(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def spec_fingerprint(spec: MatrixSpec, quick: bool) -> str:
    """Identity of one seed's work: name, kind, params and the size mode.

    The seed list is deliberately excluded — adding seeds to a config must
    not invalidate the per-seed results already on disk (that is what makes
    runs resumable); the seed itself is in the result directory name.
    """
    payload = json.dumps(
        {"name": spec.name, "kind": spec.kind, "quick": bool(quick),
         "params": _canonical(spec.params)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def parse_count(value: Union[int, str], where: str = "count") -> int:
    """``20000``, ``"20k"``, ``"1.5M"`` → an int packet/pair budget."""
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a count, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value == int(value):
        return int(value)
    if isinstance(value, str):
        text = value.strip().lower().replace("_", "")
        scale = 1
        if text.endswith("k"):
            scale, text = 1_000, text[:-1]
        elif text.endswith("m"):
            scale, text = 1_000_000, text[:-1]
        try:
            return int(float(text) * scale)
        except ValueError:
            pass
    raise ValueError(f"{where}: cannot parse count {value!r} "
                     "(use an int or strings like '50k', '2M')")


def pick_size(value: Any, quick: bool, where: str = "size") -> Any:
    """Resolve a ``{"quick": a, "full": b}`` pair (or a plain value)."""
    if isinstance(value, Mapping):
        keys = set(value)
        if keys <= {"quick", "full"} and keys:
            chosen = value.get("quick" if quick else "full")
            if chosen is None:
                chosen = value.get("full" if quick else "quick")
            return chosen
        raise ValueError(f"{where}: size mapping must use keys 'quick'/'full', "
                         f"got {sorted(keys)}")
    return value
