"""Core data containers: datasets, variable-selection masks, evaluated models.

A candidate model is a boolean mask over the predictor columns of a
:class:`Dataset`.  Evaluating a mask yields an :class:`EvaluatedModel`
carrying the two search objectives (complexity and squared error) plus the
fitted coefficients.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


class ObjectiveVector(NamedTuple):
    """The two minimisation objectives attached to a candidate model.

    ``complexity`` is the number of selected predictors (the intercept is
    always fitted and never counted here); ``error`` is a mean squared
    error, either in-sample or cross-validated depending on the objective
    spec that produced it.
    """

    complexity: int
    error: float


def _as_mask(mask: np.ndarray | Sequence[bool]) -> np.ndarray:
    arr = np.asarray(mask)
    if arr.ndim != 1:
        raise ValueError(f"mask must be 1-D, got shape {arr.shape}")
    if arr.dtype != np.bool_:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("mask entries must be boolean or 0/1")
        arr = arr.astype(np.bool_)
    return arr


def mask_from_string(bits: str) -> np.ndarray:
    """Parse a bitstring like ``"01011"`` into a boolean mask.

    Position ``i`` of the string corresponds to predictor column ``i``.
    """
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bitstring must be non-empty over {{0,1}}, got {bits!r}")
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")


def mask_to_string(mask: np.ndarray | Sequence[bool]) -> str:
    """Render a boolean mask as a ``"0"``/``"1"`` string, column order."""
    return "".join("1" if b else "0" for b in _as_mask(mask))


def mask_complexity(mask: np.ndarray | Sequence[bool], count_intercept: bool = False) -> int:
    """Number of selected predictors; ``count_intercept`` adds one.

    The intercept is always part of the fitted model but by default does
    not count toward complexity.  Some reporting conventions count fitted
    coefficients instead, hence the flag.
    """
    return int(_as_mask(mask).sum()) + (1 if count_intercept else 0)


@dataclass(frozen=True)
class Dataset:
    """An immutable regression dataset.

    Parameters
    ----------
    X : ndarray, shape (n, k)
        Predictor matrix.  Stored column-major (Fortran order) so that
        extracting column subsets for repeated submodel fits is cheap.
    y : ndarray, shape (n,)
        Response vector.
    names : sequence of str
        One name per predictor column.
    target_name : str
        Name of the response column, used when serialising back to CSV.
    """

    X: np.ndarray
    y: np.ndarray
    names: tuple[str, ...]
    target_name: str = "y"

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        names: Sequence[str],
        target_name: str = "y",
    ) -> None:
        X = np.array(X, dtype=np.float64, order="F")
        y = np.array(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(f"y shape {y.shape} does not match X shape {X.shape}")
        names = tuple(str(nm) for nm in names)
        if len(names) != X.shape[1]:
            raise ValueError(f"{len(names)} names for {X.shape[1]} columns")
        if len(set(names)) != len(names):
            raise ValueError("predictor names must be unique")
        if target_name in names:
            raise ValueError(f"target name {target_name!r} collides with a predictor")
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise ValueError("dataset values must be finite")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "target_name", str(target_name))

    @property
    def n(self) -> int:
        """Number of rows."""
        return self.X.shape[0]

    @property
    def k(self) -> int:
        """Number of predictor columns."""
        return self.X.shape[1]

    def validate_mask(self, mask: np.ndarray | Sequence[bool]) -> np.ndarray:
        """Coerce ``mask`` to boolean and check it matches this dataset."""
        arr = _as_mask(mask)
        if arr.shape[0] != self.k:
            raise ValueError(f"mask length {arr.shape[0]} does not match k={self.k}")
        return arr


@dataclass(frozen=True)
class EvaluatedModel:
    """A candidate model with its objectives and fitted coefficients.

    ``coefficients`` holds one value per *selected* predictor, in
    ascending column order; ``intercept`` is always present.  For
    cross-validated objectives the coefficients come from a fit on the
    full dataset while ``objective.error`` is the cross-validated error.
    """

    mask: np.ndarray
    objective: ObjectiveVector
    intercept: float
    coefficients: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        mask = _as_mask(self.mask)
        coefs = np.asarray(self.coefficients, dtype=np.float64)
        if coefs.ndim != 1:
            raise ValueError("coefficients must be 1-D")
        popcount = int(mask.sum())
        if popcount != self.objective.complexity:
            raise ValueError(
                f"mask selects {popcount} predictors but objective says "
                f"{self.objective.complexity}"
            )
        if coefs.shape[0] != popcount:
            raise ValueError(
                f"{coefs.shape[0]} coefficients for {popcount} selected predictors"
            )
        mask = mask.copy()
        mask.flags.writeable = False
        coefs = coefs.copy()
        coefs.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def complexity(self) -> int:
        return self.objective.complexity

    @property
    def error(self) -> float:
        return self.objective.error

    def mask_key(self) -> bytes:
        """Raw bit pattern of the mask; usable as a dict key."""
        return self.mask.tobytes()

    def selected_names(self, names: Sequence[str]) -> tuple[str, ...]:
        """Names of the selected predictors, ascending column order."""
        if len(names) != self.mask.shape[0]:
            raise ValueError("name list does not match mask length")
        return tuple(nm for nm, b in zip(names, self.mask) if b)


def load_csv(path: str, target: str, header: bool = True) -> Dataset:
    """Load a numeric CSV file into a :class:`Dataset`.

    Parameters
    ----------
    path : str
        File to read.  Comma-separated, one header row unless
        ``header=False`` in which case columns are auto-named
        ``x1..xK`` (the target must then be referred to by auto-name).
    target : str
        Name of the response column; removed from the predictor matrix.
    header : bool
        Whether the first row holds column names.

    Raises
    ------
    ValueError
        On a missing target column, duplicate column names, ragged rows,
        fewer than two data rows, or any cell that is empty or does not
        parse as a finite number (reported with row and column).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise ValueError(f"{path}: empty file")

    if header:
        names = [c.strip() for c in rows[0]]
        data_rows = rows[1:]
        first_line = 2
    else:
        names = [f"x{i + 1}" for i in range(len(rows[0]))]
        data_rows = rows
        first_line = 1

    if len(set(names)) != len(names):
        dupes = sorted({nm for nm in names if names.count(nm) > 1})
        raise ValueError(f"{path}: duplicate column names {dupes}")
    if target not in names:
        raise ValueError(f"{path}: target column {target!r} not found")
    if len(data_rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(data_rows)}")

    ncol = len(names)
    values = np.empty((len(data_rows), ncol), dtype=np.float64)
    for i, row in enumerate(data_rows):
        line = first_line + i
        if len(row) != ncol:
            raise ValueError(
                f"{path}: line {line} has {len(row)} cells, expected {ncol}"
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise ValueError(
                    f"{path}: empty cell at line {line}, column {names[j]!r}"
                )
            try:
                val = float(text)
            except ValueError:
                raise ValueError(
                    f"{path}: cannot parse {cell!r} at line {line}, column {names[j]!r}"
                ) from None
            if not math.isfinite(val):
                raise ValueError(
                    f"{path}: non-finite value {cell!r} at line {line}, column {names[j]!r}"
                )
            values[i, j] = val

    t = names.index(target)
    keep = [j for j in range(ncol) if j != t]
    if not keep:
        raise ValueError(f"{path}: no predictor columns besides the target")
    return Dataset(
        X=values[:, keep],
        y=values[:, t],
        names=[names[j] for j in keep],
        target_name=target,
    )


def save_csv(data: Dataset, path: str) -> None:
    """Write a dataset back to CSV at full stored precision.

    Predictor columns come first in stored order, the target column last.
    ``load_csv`` on the output reproduces the dataset bit for bit.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.names) + [data.target_name])
        for i in range(data.n):
            row = [repr(float(v)) for v in data.X[i]]
            row.append(repr(float(data.y[i])))
            writer.writerow(row)

