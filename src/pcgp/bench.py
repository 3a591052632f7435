"""Benchmark fitness functions.

CSV-backed classification and regression plus a built-in cart-pole
balancing task.  All fitnesses are maximized and deterministic for a
given genome, so they can drive either evolution loop directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .decode import DecodeSettings, decode
from .errors import ConfigError, DatasetError
from .execute import new_state, run_supervised, step
from .functions import FunctionSet
from .genome import Genome

TASKS = ("classification", "regression")

GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
POLE_HALF_LENGTH = 0.5
FORCE = 10.0
TIMESTEP = 0.02
ANGLE_LIMIT = 12.0 * math.pi / 180.0
POSITION_LIMIT = 2.4
CARTPOLE_INIT = (0.0, 0.0, 0.05, 0.0)   # slight tilt so doing nothing fails


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus targets; features are min-max scaled to [0,1]."""

    features: np.ndarray        # (rows, n_features)
    targets: np.ndarray         # (rows,) class indices or (rows, n_out) reals
    task: str
    feature_min: np.ndarray
    feature_max: np.ndarray
    labels: tuple = ()          # class names in first-appearance order

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.labels)


def _scale_columns(feats: np.ndarray, path, header):
    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = np.flatnonzero(~np.isfinite(span))
    if wide.size:
        j = int(wide[0])
        raise DatasetError(f"{path} column {j + 1} ({header[j]!r}): feature range "
                           f"[{lo[j]}, {hi[j]}] is too wide to scale")
    safe = np.where(span > 0, span, 1.0)
    scaled = np.where(span > 0, (feats - lo) / safe, 0.5)
    return scaled, lo, hi


def _number(cell: str, what: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetError(f"{where}: non-numeric {what} {cell!r}") from None
    if not math.isfinite(value):
        raise DatasetError(f"{where}: non-finite {what} {cell!r}")
    return value


def load_csv(path, task: str) -> Dataset:
    """Read a header-plus-rows CSV whose last column is the target.

    Features and regression targets must be finite numbers; anything
    else raises a DatasetError naming the row and column.  So does a
    feature column whose max - min overflows to inf.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise DatasetError(f"empty file: {path}")
    width = len(rows[0])
    if width < 2:
        raise DatasetError(f"{path}: need at least one feature and a target column")
    data = rows[1:]
    if not data:
        raise DatasetError(f"{path}: header but no data rows")
    header = rows[0]
    feats = np.empty((len(data), width - 1), dtype=float)
    raw_targets = []
    for i, row in enumerate(data):
        rownum = i + 2          # header is row 1
        if len(row) != width:
            raise DatasetError(
                f"{path} row {rownum}: expected {width} values, got {len(row)}")
        for j, cell in enumerate(row[:-1]):
            feats[i, j] = _number(
                cell, "feature", f"{path} row {rownum} column {j + 1} ({header[j]!r})")
        cell = row[-1].strip()
        if task == "regression":
            raw_targets.append(_number(
                cell, "target", f"{path} row {rownum} column {width} ({header[-1]!r})"))
        else:
            raw_targets.append(cell)
    scaled, lo, hi = _scale_columns(feats, path, header)
    if task == "classification":
        index = {}
        for t in raw_targets:
            index.setdefault(t, len(index))
        targets = np.array([index[t] for t in raw_targets], dtype=int)
        labels = tuple(index)
    else:
        targets = np.array(raw_targets, dtype=float).reshape(-1, 1)
        labels = ()
    scaled.flags.writeable = False
    targets.flags.writeable = False
    return Dataset(scaled, targets, task, lo, hi, labels)


def _check_dataset(g: Genome, d: Dataset, task: str, n_out: int):
    if d.task != task:
        raise ConfigError(f"dataset is for {d.task}, not {task}")
    if d.n_rows == 0:
        raise ConfigError("empty dataset")
    if g.n_in != d.n_features:
        raise ConfigError(
            f"genome has {g.n_in} inputs but the dataset has {d.n_features} features")
    if g.n_out != n_out:
        raise ConfigError(
            f"genome has {g.n_out} outputs but the task needs {n_out}")


def classification_fitness(g: Genome, d: Dataset,
                           settings: DecodeSettings, fset: FunctionSet) -> float:
    """Accuracy in [0,1]; predicted class is the argmax output (ties to
    the lowest index).  State is reset once, then rows run in file order."""
    _check_dataset(g, d, "classification", d.n_classes)
    graph = decode(g, settings, fset)
    outputs = run_supervised(graph, d.features)      # (n_out, rows)
    predicted = np.argmax(outputs, axis=0)
    return float(np.mean(predicted == d.targets))


def regression_fitness(g: Genome, d: Dataset,
                       settings: DecodeSettings, fset: FunctionSet) -> float:
    """Negated mean squared error over all rows and outputs; 0 is perfect."""
    if d.task != "regression":
        raise ConfigError(f"dataset is for {d.task}, not regression")
    _check_dataset(g, d, "regression", d.targets.shape[1])
    graph = decode(g, settings, fset)
    outputs = run_supervised(graph, d.features)
    return float(-np.mean((outputs.T - d.targets) ** 2))


def cartpole_fitness(g: Genome, settings: DecodeSettings, fset: FunctionSet,
                     episode_len: int = 500) -> float:
    """Fraction of the episode a bang-bang controlled pole stays up.

    The program reads (cart position, cart velocity, pole angle, pole
    angular velocity) each step and pushes with +/-10 N by the sign of
    its output.  Euler integration, failure beyond 12 degrees or 2.4 m.
    """
    if g.n_in != 4 or g.n_out != 1:
        raise ConfigError("cart-pole needs 4 inputs and 1 output")
    if episode_len < 1:
        raise ConfigError("episode length must be positive")
    graph = decode(g, settings, fset)
    state = new_state(graph)
    x, xd, th, thd = CARTPOLE_INIT
    total = CART_MASS + POLE_MASS
    pml = POLE_MASS * POLE_HALF_LENGTH
    for survived in range(episode_len):
        out, state = step(graph, state, (x, xd, th, thd))
        force = FORCE if out[0] > 0.0 else -FORCE
        s, c = math.sin(th), math.cos(th)
        temp = (force + pml * thd * thd * s) / total
        thdd = (GRAVITY * s - c * temp) / (
            POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * c * c / total))
        xdd = temp - pml * thdd * c / total
        x += TIMESTEP * xd
        xd += TIMESTEP * xdd
        th += TIMESTEP * thd
        thd += TIMESTEP * thdd
        if abs(th) > ANGLE_LIMIT or abs(x) > POSITION_LIMIT:
            return survived / episode_len
    return 1.0
