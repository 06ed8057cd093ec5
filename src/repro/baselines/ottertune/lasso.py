"""Lasso-based knob ranking (OtterTune's knob-selection stage).

Coordinate-descent Lasso on standardized features; knobs are ranked by
the order in which their coefficients become non-zero as the L1 penalty
is relaxed (the Lasso path), which is OtterTune's importance ordering.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lasso_coordinate_descent", "rank_knobs"]


def lasso_coordinate_descent(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> np.ndarray:
    """Solve min_w  (1/2n)||y − Xw||² + α||w||₁ by cyclic coordinate descent.

    ``x`` is assumed standardized (zero mean, unit variance per column);
    ``y`` centred.  Returns the coefficient vector (d,).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = x.shape
    if y.shape[0] != n:
        raise ValueError("x and y must align")
    if n == 0:
        raise ValueError("need at least one observation")
    alpha, tol = float(alpha), float(tol)
    # The loop runs on Python floats; numpy-scalar dispatch would dominate
    # it.  Each step is the same IEEE double operation as the array form
    # of coordinate descent, so the coefficients are bit-identical to it,
    # signed zeros included.  rho must come from the strided column view:
    # a contiguous copy would take BLAS's unit-stride ddot kernel, which
    # sums in another order.
    col_sq = ((x**2).sum(axis=0) / n).tolist()
    columns = [
        (j, x[:, j], c) for j, c in enumerate(col_sq) if not c <= 1e-15
    ]
    w = [0.0] * d
    residual = y.copy()
    step = np.empty(n)
    for _ in range(max_iter):
        max_delta = 0.0
        for j, col, c in columns:
            w_old = w[j]
            rho = float(col.dot(residual)) / n + c * w_old
            # Soft thresholding: sign(rho) * max(|rho| - alpha, 0) / c,
            # with sign(0) = 0 and NaN propagating as np.sign does.
            shrunk = abs(rho) - alpha
            if shrunk < 0.0:
                shrunk = 0.0
            if rho > 0.0:
                w_new = shrunk / c
            elif rho < 0.0:
                w_new = -shrunk / c
            elif rho == 0.0:
                w_new = 0.0 * shrunk / c
            else:
                w_new = rho
            if w_new != w_old:
                np.multiply(col, w_old - w_new, out=step)
                np.add(residual, step, out=residual)
                w[j] = w_new
                delta = abs(w_new - w_old)
                if delta > max_delta:
                    max_delta = delta
        if max_delta < tol:
            break
    return np.array(w, dtype=np.float64)


def rank_knobs(
    x: np.ndarray, y: np.ndarray, n_alphas: int = 20
) -> list[int]:
    """Rank feature indices by Lasso-path entry order (important first).

    Features entering the active set at larger penalties matter more.
    Ties (features entering at the same alpha) are broken by coefficient
    magnitude; features that never enter rank last by correlation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = x.shape
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd = np.where(sd > 1e-12, sd, 1.0)
    xs = (x - mu) / sd
    yc = y - y.mean()

    alpha_max = float(np.abs(xs.T @ yc).max() / n)
    if alpha_max <= 0:
        return list(range(d))
    alphas = np.geomspace(alpha_max, alpha_max * 1e-3, n_alphas)

    entry_alpha = np.full(d, -1.0)
    entry_coef = np.zeros(d)
    for a in alphas:
        w = lasso_coordinate_descent(xs, yc, a)
        newly = (np.abs(w) > 1e-10) & (entry_alpha < 0)
        entry_alpha[newly] = a
        entry_coef[newly] = np.abs(w[newly])
        # A solve can only record features that have not entered yet;
        # once none is left the rest of the path cannot move the ranking.
        if not (entry_alpha < 0).any():
            break

    corr = np.abs(xs.T @ yc) / n
    order = sorted(
        range(d),
        key=lambda j: (
            -entry_alpha[j] if entry_alpha[j] > 0 else 0.0,
            -entry_coef[j],
            -corr[j],
        ),
    )
    # Features that entered the path always rank before those that never did.
    entered = [j for j in order if entry_alpha[j] > 0]
    never = [j for j in order if entry_alpha[j] <= 0]
    never.sort(key=lambda j: -corr[j])
    return entered + never
