"""JSON and CSV serialisation of frontiers, trajectories and ground truth.

Every file the CLI writes gets its text from :func:`json_text` or
:func:`csv_text`, or from ``save_csv`` for a dataset.

``frontier.json`` is the interchange document between the search and
analysis stages.  Layout (schema tag ``paretoreg-frontier/1``)::

    {
      "schema": "paretoreg-frontier/1",
      "config": { ... run parameters, enough to reproduce the run ... },
      "data": {"n": 500, "k": 15, "names": [...], "target": "y"},
      "models": [
        {"mask": "010110...", "variables": [...], "complexity": 3,
         "error": 1.25, "intercept": 0.5, "coefficients": [...]},
        ...
      ],
      "stats": {"generations": 500, "evaluations": 7515,
                "unique_models": 3101, "runtime_seconds": 2.2}
    }

Masks serialise as bitstrings and floats via ``repr``, so a round trip
through JSON reproduces every value exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from .baselines import Trajectory
from .data import EvaluatedModel, ObjectiveVector, mask_from_string, mask_to_string
from .moga import Snapshot
from .pareto import Frontier
from .simdata import TrueModel

if TYPE_CHECKING:
    from .analysis import CriteriaScan

FRONTIER_SCHEMA = "paretoreg-frontier/1"


def json_text(doc: Any) -> str:
    """The JSON file form of ``doc``: two-space indent, final newline."""
    return json.dumps(doc, indent=2) + "\n"


def csv_text(header: str, rows: Iterable[Sequence[Any]]) -> str:
    """``header``, then one line per row: its fields by ``str`` (a float's
    exact ``repr``), comma-joined; a field that holds a comma, a quote or a
    line break is quoted as ``csv`` quotes it."""
    out = io.StringIO()
    out.write(header + "\n")
    csv.writer(out, lineterminator="\n").writerows([str(v) for v in row] for row in rows)
    return out.getvalue()


def _model_to_dict(model: EvaluatedModel, names: Sequence[str]) -> dict[str, Any]:
    return {
        "mask": mask_to_string(model.mask),
        "variables": list(model.selected_names(names)),
        "complexity": model.objective.complexity,
        "error": float(model.objective.error),
        "intercept": float(model.intercept),
        "coefficients": [float(c) for c in model.coefficients],
    }


_MISSING = object()


def _field(doc: Any, key: str, convert: Callable[[Any], Any], default: Any = _MISSING) -> Any:
    """``convert(doc[key])``, or ``default`` when ``key`` is absent.

    A missing field without a default, or a value that ``convert``
    refuses, raises ``ValueError`` naming ``key``.
    """
    try:
        value = doc[key]
    except (KeyError, TypeError):
        if default is _MISSING:
            raise ValueError(f"frontier document has no {key!r} field") from None
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"frontier field {key!r} is malformed: {exc}") from None


def _finite(value: Any) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not finite")
    return out


def _positive_int(value: Any) -> int:
    if isinstance(value, bool) or int(value) != value or value < 1:
        raise ValueError(f"{value!r} is not a positive integer")
    return int(value)


def _model_from_dict(doc: dict[str, Any]) -> EvaluatedModel:
    return EvaluatedModel(
        mask=_field(doc, "mask", mask_from_string),
        objective=ObjectiveVector(
            complexity=_field(doc, "complexity", int), error=_field(doc, "error", _finite)
        ),
        intercept=_field(doc, "intercept", _finite),
        coefficients=_field(doc, "coefficients", lambda v: np.array([_finite(c) for c in v])),
    )


@dataclass(frozen=True)
class FrontierDoc:
    """A deserialised ``frontier.json``."""

    frontier: Frontier
    names: tuple[str, ...]
    target: str
    n: int
    config: dict[str, Any]
    stats: dict[str, Any]


def frontier_to_dict(
    frontier: Frontier,
    names: Sequence[str],
    target: str,
    n: int,
    config: dict[str, Any],
    stats: dict[str, Any],
) -> dict[str, Any]:
    return {
        "schema": FRONTIER_SCHEMA,
        "config": dict(config),
        "data": {"n": int(n), "k": len(names), "names": list(names), "target": target},
        "models": [_model_to_dict(m, names) for m in frontier],
        "stats": dict(stats),
    }


def frontier_from_dict(doc: dict[str, Any]) -> FrontierDoc:
    """Parse a ``frontier.json`` document; a malformed one raises ``ValueError``."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != FRONTIER_SCHEMA:
        raise ValueError(
            f"unsupported frontier schema {schema!r}, expected {FRONTIER_SCHEMA!r}"
        )
    models = tuple(_model_from_dict(d) for d in _field(doc, "models", list))
    data = _field(doc, "data", dict)
    names = _field(data, "names", list)
    lengths = {m.mask.shape[0] for m in models} - {len(names)}
    if lengths:
        raise ValueError(f"{len(names)} names for masks of length {min(lengths)}")
    return FrontierDoc(
        frontier=Frontier(models=models),
        names=tuple(names),
        target=_field(data, "target", str, "y"),
        n=_field(data, "n", _positive_int),
        config=_field(doc, "config", dict, {}),
        stats=_field(doc, "stats", dict, {}),
    )


def write_frontier_json(path: str, doc: dict[str, Any]) -> None:
    Path(path).write_text(json_text(doc))


def read_frontier_json(path: str) -> FrontierDoc:
    return frontier_from_dict(json.loads(Path(path).read_text()))


def frontier_csv(frontier: Frontier, names: Sequence[str]) -> str:
    """Flat CSV view of a frontier, one model per row."""
    rows = [
        (m.objective.complexity, float(m.objective.error), m.intercept, mask_to_string(m.mask),
         ";".join(m.selected_names(names)), ";".join(repr(float(c)) for c in m.coefficients))
        for m in frontier
    ]
    return csv_text("complexity,error,intercept,mask,variables,coefficients", rows)


def trajectory_to_dict(traj: Trajectory, names: Sequence[str]) -> dict[str, Any]:
    return {
        "schema": "paretoreg-trajectory/1",
        "method": traj.method,
        "steps": [_model_to_dict(m, names) for m in traj.steps],
        "final": _model_to_dict(traj.final, names),
    }


def trajectory_csv(traj: Trajectory, names: Sequence[str]) -> str:
    rows = [
        (i, m.objective.complexity, float(m.objective.error), mask_to_string(m.mask),
         ";".join(m.selected_names(names)))
        for i, m in enumerate(traj.steps, start=1)
    ]
    return csv_text("step,complexity,error,mask,variables", rows)


def truth_to_dict(truth: TrueModel) -> dict[str, Any]:
    return {
        "schema": "paretoreg-truth/1",
        "space_names": list(truth.space_names),
        "mask": mask_to_string(truth.mask),
        "terms": list(truth.names),
        "coefficients": [float(c) for c in truth.coefficients],
        "intercept": float(truth.intercept),
        "noise_sd": float(truth.noise_sd),
    }


def snapshots_csv(snapshots: Sequence[Snapshot]) -> str:
    rows = [
        (snap.generation, c, float(e))
        for snap in snapshots
        for c, e in zip(snap.complexities, snap.errors)
    ]
    return csv_text("generation,complexity,error", rows)


def snapshots_from_csv(text: str) -> tuple[Snapshot, ...]:
    by_gen: dict[int, tuple[list[int], list[float]]] = {}
    for lineno, line in enumerate(text.strip().splitlines()[1:], start=2):
        if not line:
            continue
        try:
            gen, c, e = line.split(",")
            gen, c, e = int(gen), int(c), float(e)
        except ValueError:
            raise ValueError(
                f"snapshots line {lineno}: expected generation,complexity,error, "
                f"got {line!r}"
            ) from None
        bucket = by_gen.setdefault(gen, ([], []))
        bucket[0].append(c)
        bucket[1].append(e)
    return tuple(
        Snapshot(generation=g, complexities=tuple(cs), errors=tuple(es))
        for g, (cs, es) in sorted(by_gen.items())
    )


def criteria_csv(scan: CriteriaScan) -> str:
    """``criteria.csv``: the scan's rows, an empty field for an undefined
    criterion, and 0/1 marks on the AIC and BIC minima."""
    rows = [
        (r.complexity, r.mse, "" if r.aic is None else r.aic, "" if r.bic is None else r.bic,
         int(r.complexity == scan.aic_argmin), int(r.complexity == scan.bic_argmin))
        for r in scan.rows
    ]
    return csv_text("complexity,mse,aic,bic,aic_min,bic_min", rows)
