"""Finite-difference verification of the loss gradients.

Central differences against the analytic gradient, on inputs sampled away
from the places where finite differences are meaningless: minimum pairwise
gaps keep curvature bounded, and Spearman trials additionally require the
soft-rank sort permutation and PAV block structure to be identical at
every perturbed point (the function is affine there, so the comparison is
exact up to roundoff).

Comparison rule: pass when ||fd - analytic|| <= 1e-9 (both numerically
zero; e.g. n = 2, where the correlation is identically +-1 and the true
gradient vanishes) or when the norm-relative error is below the per-
coefficient tolerance: 1e-6 for pearson/concordance, 1e-4 for spearman.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrloss import LossConfig, loss_from_arrays
from .softrank import soft_rank

__all__ = ["TOLERANCES", "GradcheckRow", "GradcheckResult", "run_gradcheck"]

TOLERANCES = {"pearson": 1e-6, "concordance": 1e-6, "spearman": 1e-4}
_ZERO_FLOOR = 1e-9
_FD_STEPS = {"pearson": 1e-6, "concordance": 1e-6, "spearman": 1e-5}


@dataclass(frozen=True)
class GradcheckRow:
    trial: int
    n: int
    rel_err: float | None
    status: str  # "pass", "fail", or "skip" (degenerate input)


@dataclass(frozen=True)
class GradcheckResult:
    coefficient: str
    tolerance: float
    rows: tuple[GradcheckRow, ...]
    passed: bool


def _gapped(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values in [0, 1] whose pairwise gaps stay at >= 40% of even spacing."""
    spacing = 0.9 / max(n - 1, 1)
    base = np.linspace(0.05, 0.95, n)
    return rng.permutation(base + rng.uniform(-0.3, 0.3, size=n) * spacing)


def _blocks_stable(y: np.ndarray, epsilon: float, h: float) -> bool:
    base = soft_rank(y, epsilon)
    for i in range(y.shape[0]):
        for s in (h, -h):
            yp = y.copy()
            yp[i] += s
            r = soft_rank(yp, epsilon)
            if not (
                np.array_equal(r.permutation, base.permutation)
                and np.array_equal(r.blocks, base.blocks)
            ):
                return False
    return True


def _fd_gradient(x: np.ndarray, y: np.ndarray, cfg: LossConfig, h: float) -> np.ndarray:
    out = np.empty_like(y)
    for i in range(y.shape[0]):
        yp = y.copy()
        yp[i] += h
        ym = y.copy()
        ym[i] -= h
        out[i] = (loss_from_arrays(x, yp, cfg).value - loss_from_arrays(x, ym, cfg).value) / (2.0 * h)
    return out


def compare_gradients(analytic: np.ndarray, fd: np.ndarray, tol: float) -> tuple[float, bool]:
    """(norm-relative error, pass?) under the module's comparison rule."""
    diff = float(np.linalg.norm(analytic - fd))
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)), 1e-12)
    return diff / denom, diff <= _ZERO_FLOOR or diff / denom <= tol


def run_gradcheck(
    coefficient: str,
    n: int,
    trials: int,
    seed: int,
    epsilon: float = 1.0,
) -> GradcheckResult:
    """Run ``trials`` finite-difference comparisons at sample size ``n``.

    n < 2 inputs are degenerate by contract: each trial just asserts the
    zero-loss/zero-gradient/no-NaN behaviour and reports "skip".  Raises
    ValueError for trials < 1, as a run that checks nothing must not pass,
    and for n < 0.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    cfg = LossConfig(coefficient=coefficient, epsilon=epsilon)
    tol = TOLERANCES[coefficient]
    h = _FD_STEPS[coefficient]
    rng = np.random.default_rng(seed)
    rows: list[GradcheckRow] = []

    for trial in range(trials):
        if n < 2:
            res = loss_from_arrays(rng.uniform(0, 1, n), rng.uniform(0, 1, n), cfg)
            ok = res.value == 0.0 and np.all(res.grad_scores == 0.0)
            rows.append(GradcheckRow(trial, n, None, "skip" if ok else "fail"))
            continue

        x = _gapped(rng, n)
        y = _gapped(rng, n)
        if coefficient == "spearman":
            while not _blocks_stable(y, cfg.epsilon, h):
                y = _gapped(rng, n)
        analytic = loss_from_arrays(x, y, cfg).grad_scores
        rel_err, ok = compare_gradients(analytic, _fd_gradient(x, y, cfg, h), tol)
        rows.append(GradcheckRow(trial, n, rel_err, "pass" if ok else "fail"))

    passed = all(r.status != "fail" for r in rows)
    return GradcheckResult(coefficient, tol, tuple(rows), passed)
