"""Benchmark fitness functions.

CSV-backed classification and regression plus a built-in cart-pole
balancing task.  All fitnesses are maximized and deterministic for a
given genome, so they can drive either evolution loop directly.
MemoizedFitness, which config.make_fitness returns, adds a memo: it
scores each distinct active program once.
"""

from __future__ import annotations

import csv
import math
import threading
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
    cannot be read as text.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as e:
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


def _check_dataset(g: Genome, d: Dataset, task: str):
    if d.task != task:
        raise ConfigError(f"dataset is for {d.task}, not {task}")
    if d.n_rows == 0:
        raise ConfigError("empty dataset")
    if g.n_in != d.n_features:
        raise ConfigError(
            f"genome has {g.n_in} inputs but the dataset has {d.n_features} features")
    if g.n_out != d.n_out:
        raise ConfigError(
            f"genome has {g.n_out} outputs but the task needs {d.n_out}")


def _check_cartpole(g: Genome, episode_len: int):
    if g.n_in != 4 or g.n_out != 1:
        raise ConfigError("cart-pole needs 4 inputs and 1 output")
    if episode_len < 1:
        raise ConfigError("episode length must be positive")


def _accuracy(graph: DecodedGraph, d: Dataset) -> float:
    outputs = run_supervised(graph, d.features)      # (n_out, rows)
    predicted = np.argmax(outputs, axis=0)
    return float(np.mean(predicted == d.targets))


def _neg_mse(graph: DecodedGraph, d: Dataset) -> float:
    outputs = run_supervised(graph, d.features)
    return float(-np.mean((outputs.T - d.targets) ** 2))


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


def classification_fitness(g: Genome, d: Dataset,
                           settings: DecodeSettings, fset: FunctionSet) -> float:
    """Accuracy in [0,1]; predicted class is the argmax output (ties to
    the lowest index).  State is reset once, then rows run in file order."""
    _check_dataset(g, d, "classification")
    return _accuracy(decode(g, settings, fset), d)


def regression_fitness(g: Genome, d: Dataset,
                       settings: DecodeSettings, fset: FunctionSet) -> float:
    """Negated mean squared error over all rows and outputs; 0 is perfect."""
    _check_dataset(g, d, "regression")
    return _neg_mse(decode(g, settings, fset), d)


def cartpole_fitness(g: Genome, settings: DecodeSettings, fset: FunctionSet,
                     episode_len: int = 500) -> float:
    """Fraction of the episode a bang-bang controlled pole stays up.

    The program reads (cart position, cart velocity, pole angle, pole
    angular velocity) each step and pushes with +/-10 N by the sign of
    its output.  Euler integration, failure beyond 12 degrees or 2.4 m.
    """
    _check_cartpole(g, episode_len)
    return _balance(decode(g, settings, fset), episode_len)


class MemoizedFitness:
    """A bundled task's fitness that scores each distinct program once.

    Cart-pole when data is None, otherwise the dataset's task; the value
    is the one cartpole_fitness, classification_fitness or
    regression_fitness gives.  A call checks the genome against the
    task, decodes it and looks its DecodedGraph.program_key up; a miss
    scores the graph and stores the value, dropping the oldest entry
    beyond MEMO_ENTRIES.  Scoring is deterministic, so a hit returns
    exactly what scoring again would.  Safe to call from several threads.
    """

    def __init__(self, settings: DecodeSettings, fset: FunctionSet,
                 data: Dataset | None = None, episode_len: int = 500):
        self.settings = settings
        self.fset = fset
        if data is None:
            self._check = partial(_check_cartpole, episode_len=episode_len)
            self._score = partial(_balance, episode_len=episode_len)
        else:
            self._check = partial(_check_dataset, d=data, task=data.task)
            score = _accuracy if data.task == "classification" else _neg_mse
            self._score = partial(score, d=data)
        self._memo = {}
        self._lock = threading.Lock()

    def __call__(self, g: Genome) -> float:
        self._check(g)
        graph = decode(g, self.settings, self.fset)
        key = graph.program_key
        value = self._memo.get(key)
        if value is None:
            value = self._score(graph)
            with self._lock:
                self._memo[key] = value
                if len(self._memo) > MEMO_ENTRIES:
                    del self._memo[next(iter(self._memo))]
        return value
