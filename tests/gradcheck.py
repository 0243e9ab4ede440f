"""Finite-difference verification of reverse-mode gradients.

Central differences at f64, h = 1e-4 by default.  The comparison is
elementwise: |analytic - numeric| / max(1, |analytic|, |numeric|).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from waveletcond.tensor import Tensor


def numeric_grad(f: Callable[[], Tensor], param: Tensor, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of scalar f() w.r.t. one parameter.

    f must rebuild its graph from `param.data` on every call; the buffer is
    temporarily unfrozen for the perturbation and restored afterwards.
    """
    g = np.zeros(param.data.shape, dtype=np.float64)
    data = param.data
    data.setflags(write=True)
    try:
        flat = data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            g.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * h)
    finally:
        data.setflags(write=False)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_gradients(f: Callable[[], Tensor], params: dict[str, Tensor],
                    h: float = 1e-4, rtol: float = 1e-4) -> dict[str, float]:
    """Compare analytic gradients of scalar f() against central differences.

    Returns the max relative error per parameter; raises AssertionError on
    the first parameter exceeding rtol.
    """
    for p in params.values():
        p.grad = None
    loss = f()
    loss.backward()
    errors: dict[str, float] = {}
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros(p.shape)
        numeric = numeric_grad(f, p, h=h)
        err = max_rel_error(np.asarray(analytic, dtype=np.float64), numeric)
        errors[name] = err
        if err >= rtol:
            raise AssertionError(
                f"gradient check failed for {name!r}: max rel error {err:.3e} >= {rtol:.1e}")
    return errors
