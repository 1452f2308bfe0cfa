"""Regularizers and their proximal operators.

The regularizer family is deliberately closed, lam1*||x||_1 + (lam2/2)*||x||^2
(zero, l1, squared-l2 and elastic net are its weight patterns), so that the
verification oracles can check exact closed-form prox solutions instead of
trusting an inner solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Regularizer:
    """Nonsmooth part of the objective: lam1*||x||_1 + (lam2/2)*||x||^2.

    The two weights are all of it: prox, value and the reference solve read
    them, and a zero weight is no term at all."""

    lam1: float = 0.0  # l1 weight
    lam2: float = 0.0  # squared-l2 weight

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam1 < np.inf and 0.0 <= self.lam2 < np.inf):
            raise ValueError("regularizer weights must be nonnegative and finite")

    @classmethod
    def zero(cls) -> "Regularizer":
        return cls()

    @classmethod
    def l1(cls, lam: float) -> "Regularizer":
        return cls(lam1=lam)

    @classmethod
    def squared_l2(cls, lam: float) -> "Regularizer":
        return cls(lam2=lam)

    @classmethod
    def elastic_net(cls, lam1: float, lam2: float) -> "Regularizer":
        return cls(lam1, lam2)


def reg_value(reg: Regularizer, x: np.ndarray) -> float:
    """Value of the regularizer at x."""
    x = np.asarray(x, dtype=np.float64)
    val = 0.0
    if reg.lam1 != 0.0:
        val += reg.lam1 * float(np.sum(np.abs(x)))
    if reg.lam2 != 0.0:
        val += 0.5 * reg.lam2 * float(np.dot(x, x))
    return val


_ZERO = np.broadcast_to(0.0, ())  # read-only; a 0-d operand dispatches faster than 0.0


def soft_threshold(v: np.ndarray, threshold: float, out: np.ndarray | None = None) -> np.ndarray:
    """sign(v) * max(|v| - threshold, 0), for threshold > 0, in four ufuncs,
    written to ``out`` if it is given (``v`` itself included).

    copysign gives the product by sign(v) bit for bit, infinities and the
    zero of a negative v inside the threshold included, with one exception:
    at v = -0.0 it returns -0.0 where the product returns +0.0.
    """
    return np.copysign(np.maximum(np.abs(v) - threshold, _ZERO), v, out)


def prox(reg: Regularizer, v: np.ndarray, step: float, overwrite: bool = False) -> np.ndarray:
    """Unique minimizer of (1/(2*step))*||z - v||^2 + reg(z).

    Elastic net composes exactly: soft-threshold at step*lam1, then scale by
    1/(1 + step*lam2).  The result is written over a float64 copy of v, or
    with ``overwrite`` over v itself, which must then be a float64 array the
    caller may discard; zero weights then cost nothing.
    """
    if not step > 0.0:  # also refuses nan
        raise ValueError(f"prox step must be positive, got {step}")
    if not overwrite:
        v = np.array(v, dtype=np.float64)
    if reg.lam1 != 0.0:
        soft_threshold(v, step * reg.lam1, v)
    if reg.lam2 != 0.0:
        np.divide(v, 1.0 + step * reg.lam2, v)
    return v
