"""Frontier diagnostics and plot artifacts.

Plots are emitted as self-contained artifacts (CSV or text plus a
standalone SVG string) rather than through a plotting library, so they
can be written from the command line without a display and diffed in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from xml.sax.saxutils import escape

import math

import numpy as np

from ._kernels import zero_floor
from .data import Dataset, EvaluatedModel
from .moga import Snapshot
from .objectives import aic as _aic
from .objectives import bic as _bic
from .pareto import Frontier
from .serialize import csv_text

KNEE_DISTANCE_THRESHOLD = 0.02


@dataclass(frozen=True)
class KneeResult:
    """Knee of a frontier.

    ``complexity`` is the knee's variable count, ``distance`` its
    perpendicular distance from the endpoint chord after min-max
    normalising both axes.  ``pronounced`` is False when no interior
    point stands out (distance below 0.02), in which case the knee value
    is still reported but should not be trusted.
    """

    complexity: int
    distance: float
    pronounced: bool


def knee_point(frontier: Frontier) -> KneeResult:
    """Locate the knee: the point furthest from the endpoint chord.

    Both axes are min-max normalised to [0, 1] first so the result does
    not depend on units.  Endpoints are never candidates; ties go to the
    smaller complexity.  Frontiers with fewer than three points have no
    interior and raise ``ValueError``.
    """
    if len(frontier) < 3:
        raise ValueError(f"knee needs >= 3 frontier points, got {len(frontier)}")
    phi1 = np.array(frontier.complexities, dtype=np.float64)
    phi2 = np.array(frontier.errors, dtype=np.float64)
    x = (phi1 - phi1[0]) / (phi1[-1] - phi1[0])
    y = (phi2 - phi2[-1]) / (phi2[0] - phi2[-1])
    # chord runs from (0, 1) to (1, 0); |cross product| / chord length
    dists = np.abs(x + y - 1.0) / math.sqrt(2.0)
    interior = slice(1, len(frontier) - 1)
    best = 1 + int(np.argmax(dists[interior]))
    dist = float(dists[best])
    return KneeResult(
        complexity=int(phi1[best]),
        distance=dist,
        pronounced=dist >= KNEE_DISTANCE_THRESHOLD,
    )


@dataclass(frozen=True)
class CriteriaRow:
    complexity: int
    mse: float
    aic: float | None
    bic: float | None


@dataclass(frozen=True)
class CriteriaScan:
    """Information criteria along a frontier.

    ``aic_argmin``/``bic_argmin`` are complexities of the minimising
    rows, or None when no row has a finite criterion value (which
    happens only for zero-error models).
    """

    rows: tuple[CriteriaRow, ...]
    aic_argmin: int | None
    bic_argmin: int | None


def criteria_scan(frontier: Frontier, n: int) -> CriteriaScan:
    """Evaluate AIC and BIC at every frontier point.

    The penalty term counts the intercept as a fitted coefficient (the
    usual reporting convention); the error term uses each model's
    frontier error as is.  Models whose error is zero up to rounding get
    ``None`` entries since the criteria are undefined there.  The zero
    test is the kernel's SSE zero floor, with the frontier's largest
    error standing in for the intercept-only error.
    """
    if len(frontier) == 0:
        raise ValueError("cannot scan an empty frontier")
    reference = max(m.objective.error for m in frontier)
    rows = []
    for m in frontier:
        c, mse = m.objective.complexity, m.objective.error
        zero = mse <= zero_floor(n, reference)
        rows.append(
            CriteriaRow(
                complexity=c,
                mse=mse,
                aic=None if zero else _aic(mse, c + 1, n),
                bic=None if zero else _bic(mse, c + 1, n),
            )
        )

    def argmin(values: list[float | None]) -> int | None:
        finite = [(v, rows[i].complexity) for i, v in enumerate(values) if v is not None]
        if not finite:
            return None
        return min(finite)[1]

    return CriteriaScan(
        rows=tuple(rows),
        aic_argmin=argmin([r.aic for r in rows]),
        bic_argmin=argmin([r.bic for r in rows]),
    )


def kappa_metric(
    frontiers: Sequence[Frontier],
    eval_sets: Sequence[Dataset],
    lo: int,
    hi: int,
) -> float:
    """Mean held-out error of frontier models in a complexity band.

    Each frontier is paired with one evaluation dataset.  Every frontier
    model with complexity in [lo, hi] is scored on its paired dataset by
    :meth:`EvaluatedModel.predict`, with the coefficients already stored
    in the model (no refitting); the scores are averaged within a pair,
    and the pair averages are averaged again.  Pairs whose frontier has
    no model in the band are an error, as is an empty input.
    """
    if len(frontiers) == 0 or len(frontiers) != len(eval_sets):
        raise ValueError(
            f"need equal non-zero counts, got {len(frontiers)} frontiers "
            f"and {len(eval_sets)} evaluation sets"
        )
    if lo > hi:
        raise ValueError(f"empty complexity band [{lo}, {hi}]")
    pair_means = []
    for frontier, data in zip(frontiers, eval_sets):
        scores = []
        for m in frontier:
            if not lo <= m.objective.complexity <= hi:
                continue
            resid = data.y - m.predict(data.X)
            scores.append(float(resid @ resid) / data.n)
        if not scores:
            raise ValueError(
                f"a frontier has no models with complexity in [{lo}, {hi}]"
            )
        pair_means.append(sum(scores) / len(scores))
    return sum(pair_means) / len(pair_means)


# ---------------------------------------------------------------------------
# plot artifacts

_SVG_W, _SVG_H = 640, 480
_MARGIN = 56
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class OSPlot:
    """Objective-space scatter of a frontier and optional snapshots."""

    csv: str
    svg: str
    series_names: tuple[str, ...]


@dataclass(frozen=True)
class HSPlot:
    """Variable-membership chart across frontier models."""

    text: str
    svg: str
    matrix: np.ndarray
    row_names: tuple[str, ...]
    complexities: tuple[int, ...]


def _svg_header(width: int = _SVG_W, height: int = _SVG_H) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def os_plot(
    frontier: Frontier,
    snapshots: Sequence[Snapshot] = (),
    log_y: bool = False,
) -> OSPlot:
    """Objective-space plot: error against complexity.

    The frontier is one series; each snapshot adds a scatter series
    labelled by its generation, so progress of a run can be overlaid.
    ``log_y`` draws the error axis in log10 and requires every error to
    be positive.  Returns the data as CSV plus a standalone SVG.
    """
    if len(frontier) == 0:
        raise ValueError("cannot plot an empty frontier")
    raw = [(f"gen {snap.generation}", snap.complexities, snap.errors) for snap in snapshots]
    raw.append(("frontier", frontier.complexities, frontier.errors))
    series = [(name, np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)) for name, xs, ys in raw]

    rows = [(name, int(xv), float(yv)) for name, xs, ys in series for xv, yv in zip(xs, ys)]

    all_x = np.concatenate([s[1] for s in series])
    all_y = np.concatenate([s[2] for s in series])
    if log_y:
        if (all_y <= 0).any():
            raise ValueError("log_y requires every error to be positive")
        all_y = np.log10(all_y)
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(v: float) -> float:
        return _MARGIN + (v - x_lo) / x_span * (_SVG_W - 2 * _MARGIN)

    def sy(v: float) -> float:
        if log_y:
            v = math.log10(v)
        return _SVG_H - _MARGIN - (v - y_lo) / y_span * (_SVG_H - 2 * _MARGIN)

    parts = _svg_header()
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
    )
    axis_label = "log10 error" if log_y else "error"
    parts.append(
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-size="13">complexity</text>'
    )
    parts.append(
        f'<text x="16" y="{_SVG_H // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {_SVG_H // 2})">{escape(axis_label)}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 18}" font-size="11" '
        f'text-anchor="middle">{_fmt(x_lo)}</text>'
    )
    parts.append(
        f'<text x="{_SVG_W - _MARGIN}" y="{_SVG_H - _MARGIN + 18}" font-size="11" '
        f'text-anchor="middle">{_fmt(x_hi)}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN - 6}" y="{_SVG_H - _MARGIN}" font-size="11" '
        f'text-anchor="end">{_fmt(y_lo)}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="11" '
        f'text-anchor="end">{_fmt(y_hi)}</text>'
    )
    for s_idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[s_idx % len(_PALETTE)]
        is_frontier = name == "frontier"
        for xv, yv in zip(xs, ys):
            parts.append(
                f'<circle cx="{sx(xv):.2f}" cy="{sy(yv):.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.7"/>'
            )
        if is_frontier and len(xs) > 1:
            pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(xs, ys))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN - 4}" y="{_MARGIN + 16 * s_idx + 4}" '
            f'font-size="12" text-anchor="end" fill="{color}">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return OSPlot(
        csv=csv_text("series,complexity,error", rows),
        svg="\n".join(parts) + "\n",
        series_names=tuple(s[0] for s in series),
    )


def hs_plot(
    frontier: Frontier,
    names: Sequence[str],
    complexity_range: tuple[int, int] | None = None,
) -> HSPlot:
    """History-of-selection chart: which variables enter which models.

    One column per frontier model (ascending complexity), one row per
    variable that appears in at least one shown model.  Rows are ordered
    by the smallest complexity at which the variable first appears, then
    by name.  Returned as a fixed-width text table, a standalone SVG and
    the raw membership matrix.
    """
    shown = (
        frontier
        if complexity_range is None
        else frontier.restrict(complexity_range[0], complexity_range[1])
    )
    if len(shown) == 0:
        raise ValueError("no frontier models in the requested complexity range")
    names = tuple(str(nm) for nm in names)
    k = shown[0].mask.shape[0]
    if len(names) != k:
        raise ValueError(f"{len(names)} names for masks of length {k}")

    complexities = tuple(m.objective.complexity for m in shown)
    # the models come in ascending complexity, so the first sighting is the smallest
    first_seen: dict[int, int] = {}
    for m in shown:
        for j in np.flatnonzero(m.mask).tolist():
            first_seen.setdefault(j, m.objective.complexity)
    row_cols = sorted(first_seen, key=lambda j: (first_seen[j], names[j]))
    matrix = np.zeros((len(row_cols), len(shown)), dtype=np.bool_)
    for c, m in enumerate(shown):
        for r, j in enumerate(row_cols):
            matrix[r, c] = bool(m.mask[j])
    row_names = tuple(names[j] for j in row_cols)

    name_w = max((len(nm) for nm in row_names), default=4)
    name_w = max(name_w, len("variable"))
    cell_w = max(2, max((len(str(c)) for c in complexities), default=1) + 1)
    header = "variable".ljust(name_w) + " |" + "".join(
        str(c).rjust(cell_w) for c in complexities
    )
    rule = "-" * name_w + "-+" + "-" * (cell_w * len(complexities))
    body = []
    for r, nm in enumerate(row_names):
        cells = "".join(
            ("x" if matrix[r, c] else ".").rjust(cell_w) for c in range(len(shown))
        )
        body.append(nm.ljust(name_w) + " |" + cells)
    text = "\n".join([header, rule] + body) + "\n"

    label_w = 10 + 7 * name_w
    cell = 18
    width = label_w + cell * len(shown) + 20
    height = 40 + cell * len(row_names) + 30
    parts = _svg_header(width, height)
    for r, nm in enumerate(row_names):
        yc = 40 + r * cell
        parts.append(
            f'<text x="{label_w - 6}" y="{yc + 13}" font-size="12" '
            f'font-family="monospace" text-anchor="end">{escape(nm)}</text>'
        )
        for c in range(len(shown)):
            fill = "#4d4d4d" if matrix[r, c] else "#ffffff"
            parts.append(
                f'<rect x="{label_w + c * cell}" y="{yc}" width="{cell}" '
                f'height="{cell}" fill="{fill}" stroke="#bbbbbb"/>'
            )
    for c, cx in enumerate(complexities):
        parts.append(
            f'<text x="{label_w + c * cell + cell // 2}" '
            f'y="{40 + len(row_names) * cell + 16}" font-size="11" '
            f'text-anchor="middle">{cx}</text>'
        )
    parts.append(
        f'<text x="{label_w}" y="20" font-size="12">variables in frontier '
        f"models by complexity</text>"
    )
    parts.append("</svg>")
    return HSPlot(
        text=text,
        svg="\n".join(parts) + "\n",
        matrix=matrix,
        row_names=row_names,
        complexities=complexities,
    )
