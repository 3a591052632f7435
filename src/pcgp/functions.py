"""Node function table.

Each entry takes (a, b, param) and must accept python/numpy scalars as
well as numpy arrays, returning bitwise-identical results either way so
batched and stepwise execution agree exactly.  Unary functions ignore b;
nullary ones ignore a and b and use only the node's parameter gene,
which no other function reads (DecodedGraph.program_key relies on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PDIV_EPS = 1e-6


def _pdiv(a, b, _c):
    """Protected division: returns the numerator when |b| is tiny."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        unsafe = np.abs(b) < PDIV_EPS
        return np.where(unsafe, a, a / np.where(unsafe, 1.0, b))
    return a if abs(b) < PDIV_EPS else a / b


# a scalar result is a python float, so arithmetic after it stays on
# python floats; the value is numpy's either way
def _sin(a, _b, _c):
    return np.sin(a) if isinstance(a, np.ndarray) else float(np.sin(a))


def _cos(a, _b, _c):
    return np.cos(a) if isinstance(a, np.ndarray) else float(np.cos(a))


@dataclass(frozen=True)
class Function:
    name: str
    arity: int                      # 0, 1 or 2
    apply: Callable


REGISTRY = {
    f.name: f
    for f in (
        Function("add", 2, lambda a, b, c: a + b),
        Function("sub", 2, lambda a, b, c: a - b),
        Function("mult", 2, lambda a, b, c: a * b),
        Function("pdiv", 2, _pdiv),
        Function("sin", 1, _sin),
        Function("cos", 1, _cos),
        Function("abs", 1, lambda a, b, c: abs(a)),
        # nullary constant drawn from the node's parameter gene, spread to [-1, 1]
        Function("const", 0, lambda a, b, c: 2.0 * c - 1.0),
    )
}

DEFAULT_FUNCTION_NAMES = ("add", "sub", "mult", "pdiv", "sin", "cos", "abs", "const")


@dataclass(frozen=True)
class FunctionSet:
    functions: tuple[Function, ...]

    def __post_init__(self):
        if not self.functions:
            raise ValueError("function set must be non-empty")
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function names: {names}")

    def __len__(self) -> int:
        return len(self.functions)

    def __getitem__(self, i: int) -> Function:
        return self.functions[i]

    @classmethod
    def from_names(cls, names) -> "FunctionSet":
        missing = [n for n in names if n not in REGISTRY]
        if missing:
            raise ValueError(f"unknown functions {missing}; known: {sorted(REGISTRY)}")
        return cls(tuple(REGISTRY[n] for n in names))


def default_functions() -> FunctionSet:
    return FunctionSet.from_names(DEFAULT_FUNCTION_NAMES)
