"""Token-uniformity diagnostics over final-layer representations.

Deep attention-only stacks tend to collapse token representations toward
a common direction, the rank collapse of pure attention shown by Dong et
al. 2021 ("Attention is not all you need", arXiv:2103.03404). Two
measures quantify that: the mean pairwise cosine similarity across tokens
(1.0 = fully collapsed) and the relative norm of the residual after
removing the best uniform-row fit (0.0 = rank-1 with identical rows).
Both take one (n, d) matrix; ``uniformity_report`` encodes its sequences
as one (B, n) batch and measures each sequence's matrix.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from opnas.model import Model

__all__ = [
    "mean_pairwise_cosine",
    "relative_residual_norm",
    "uniformity_report",
]

log = logging.getLogger(__name__)


def mean_pairwise_cosine(x: np.ndarray) -> float:
    """Mean of cos(x_i, x_j) over all row pairs i < j.

    All-zero rows contribute similarity 0 against everything (logged, not
    fatal), keeping the value defined for degenerate representations.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need a rank-2 matrix with >= 2 rows, got {x.shape}")
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        log.warning("%d all-zero rows contribute cosine 0", int((norms == 0).sum()))
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = x / safe[:, None]
    sims = unit @ unit.T
    n = x.shape[0]
    iu = np.triu_indices(n, k=1)
    return float(sims[iu].mean())


def relative_residual_norm(x: np.ndarray) -> float:
    """||X - 1 m^T||_F / ||X||_F with m the column mean of X.

    The column mean is the Frobenius-optimal uniform-row fit, so the value
    is 0 exactly when all rows are identical and at most 1 in general.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need a rank-2 matrix with >= 2 rows, got {x.shape}")
    total = np.linalg.norm(x)
    if total == 0.0:
        raise ValueError("zero matrix has no relative residual")
    resid = np.linalg.norm(x - x.mean(axis=0, keepdims=True))
    return float(resid / total)


def uniformity_report(models: Sequence[tuple[str, Model]], heldout: np.ndarray,
                      batch: int = 8) -> list[dict]:
    """Both metrics per model over a shared heldout batch.

    ``models`` is (tag, model) pairs; every model encodes the same first
    ``batch`` heldout sequences in one (B, n) pass without a graph, and
    each metric is taken per sequence and averaged over them. Rows come
    back as {model, cosine, residual} dicts ready for plotting. The encode
    runs under the ``np.errstate`` of ``proxy_evaluate``, so non-finite
    weights raise ``NonFiniteError`` also with numpy warnings as errors.
    """
    if len(heldout) == 0:
        raise ValueError("heldout split is empty")
    seqs = np.asarray(heldout[:batch])
    rows = []
    for tag, model in models:
        with np.errstate(over="ignore", invalid="ignore"):
            reps = model.without_grad().encode(seqs).data
        cosines = [mean_pairwise_cosine(r) for r in reps]
        residuals = [relative_residual_norm(r) for r in reps]
        rows.append({
            "model": tag,
            "cosine": float(np.mean(cosines)),
            "residual": float(np.mean(residuals)),
        })
    return rows
