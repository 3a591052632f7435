"""Benchmark fitness functions.

CSV-backed classification and regression plus a built-in cart-pole
balancing task, all scored by MemoizedFitness, which
config.make_fitness returns.  Its values are maximized and
deterministic for a given genome, so it can drive either evolution
loop directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .decode import DecodedGraph, DecodeSettings, decode
from .errors import ConfigError, DatasetError
from .execute import run_feedback, run_supervised
from .execute import step  # noqa: F401 - unused; evobench wraps pcgp.bench.step
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
MEMO_ENTRIES = 2**16    # programs one MemoizedFitness remembers; oldest go first


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

    @property
    def n_out(self) -> int:
        """Program outputs the task needs: one per class or target column."""
        if self.task == "classification":
            return self.n_classes
        return self.targets.shape[1]


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
    feature column whose max - min overflows to inf, and a file that
    cannot be read as text or as CSV (a field over the csv module's
    limit, 131072 characters).  A classification target is a label, its
    stripped text, so "nan" or "inf" there is a class like any other.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DatasetError(f"cannot read {path}: {e}") from None
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


def _accuracy(graph: DecodedGraph, d: Dataset) -> float:
    outputs = run_supervised(graph, d.features)      # (n_out, rows)
    predicted = np.argmax(outputs, axis=0)
    return np.count_nonzero(predicted == d.targets) / len(predicted)    # np.mean's value


def _neg_mse(graph: DecodedGraph, d: Dataset) -> float:
    outputs = run_supervised(graph, d.features)
    # an error too large to square scores -inf, as it would without the warning
    with np.errstate(over="ignore"):
        sq = (outputs.T - d.targets) ** 2
        return float(-(np.add.reduce(sq, axis=None) / sq.size))    # -np.mean(sq)


def _balance(graph: DecodedGraph, episode_len: int) -> float:
    outs = []
    fell_at = None

    def observations():
        nonlocal fell_at
        # each row is the state before a time step; the step's push is
        # read from the output the program gave for that row
        x, xd, th, thd = CARTPOLE_INIT
        total = CART_MASS + POLE_MASS
        pml = POLE_MASS * POLE_HALF_LENGTH
        for survived in range(episode_len):
            yield x, xd, th, thd
            force = FORCE if outs[-1][0] > 0.0 else -FORCE
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
                fell_at = survived
                return

    run_feedback(graph, observations(), outs)
    return 1.0 if fell_at is None else fell_at / episode_len


class MemoizedFitness:
    """A bundled task's fitness that scores each distinct program once.

    With data it scores the dataset's task.  Classification is accuracy
    in [0,1]: the predicted class is the argmax output (ties to the
    lowest index), and state is reset once, then rows run in file order.
    Regression is the negated mean squared error over all rows and
    outputs; 0 is perfect.  With data None it is cart-pole: the fraction
    of episode_len steps a pole stays up while the program reads (cart
    position, cart velocity, pole angle, pole angular velocity) and
    pushes with +/-10 N by the sign of its output.  Euler integration;
    the episode fails beyond 12 degrees or 2.4 m.

    Construction checks the task: cart-pole needs episode_len >= 1 and
    data needs at least one row.  A call checks only the genome's input
    and output counts against the task's, decodes it and looks its
    DecodedGraph.program_key up; a miss scores the graph and stores the
    value, dropping the oldest entry beyond MEMO_ENTRIES.  The key is
    read off the active rows, and only a miss, which runs the program,
    builds its plan.  Scoring is deterministic, so a hit returns exactly
    what scoring again would: a fresh instance gives the memo-free value.

    decode fills only the active nodes' rows, which is all the key and
    the interpreter read, so neither a hit nor a miss decodes an
    inactive node; a graph fills its other rows on first read of an
    attribute that needs them.  Calls are serial: nothing guards the
    memo or a graph's lazily filled rows against concurrent callers.
    """

    def __init__(self, settings: DecodeSettings, fset: FunctionSet,
                 data: Dataset | None = None, episode_len: int = 500):
        self.settings = settings
        self.fset = fset
        if data is None:
            if episode_len < 1:
                raise ConfigError("episode length must be positive")
            self._shape, self._score = (4, 1), partial(_balance, episode_len=episode_len)
        else:
            if data.n_rows == 0:
                raise ConfigError("empty dataset")
            score = _accuracy if data.task == "classification" else _neg_mse
            self._shape, self._score = (data.n_features, data.n_out), partial(score, d=data)
        self._memo = {}

    def __call__(self, g: Genome) -> float:
        if (g.n_in, g.n_out) != self._shape:
            raise ConfigError(f"genome has {g.n_in} inputs and {g.n_out} outputs "
                              "but the task needs {} and {}".format(*self._shape))
        graph = decode(g, self.settings, self.fset)
        key = graph.program_key
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._score(graph)
            if len(self._memo) > MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
        return value
