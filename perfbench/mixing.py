"""Rank-normalized split-R-hat and bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC".  Inputs are ``(chains, draws)`` arrays.

``polyagg.volume.sample_uniform`` lays its cloud out chain-major: row
``c * per_chain + k`` is record ``k`` of chain ``c``, with ``per_chain =
ceil(count / chains)``, and the cloud is truncated to ``count`` rows, so the
last chain may be short.  ``chain_matrix`` undoes that layout and keeps the
complete chains.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def chain_matrix(values, count: int, chains: int) -> np.ndarray:
    """Per-sample values of a chain-major cloud as a (chains, draws) matrix."""
    per_chain = -(-count // chains)
    full = len(values) // per_chain
    return np.asarray(values[: full * per_chain], dtype=float).reshape(full, per_chain)


def split_chains(x: np.ndarray) -> np.ndarray:
    """Each chain's first and last half as two chains (middle draw dropped)."""
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)


def rank_normalize(x: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks (Blom's offset 3/8)."""
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, by FFT."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n] / n


def _rhat(x: np.ndarray) -> float:
    chains, n = x.shape
    within = x.var(axis=1, ddof=1).mean()
    between = n * x.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


def _ess(x: np.ndarray) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence."""
    chains, n = x.shape
    acov = _autocovariance(x)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if chains > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    acov_mean = acov.mean(axis=0)
    rho = np.zeros(n)
    rho_even = 1.0
    rho[0] = rho_even
    rho_odd = 1.0 - (mean_var - acov_mean[1]) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - acov_mean[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - acov_mean[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2
    total = chains * n
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1: max_t + 2].sum()
    return float(total / max(tau, 1.0 / np.log10(total)))


def bulk_ess(x: np.ndarray) -> float:
    """ESS of the rank-normalized split chains."""
    return _ess(rank_normalize(split_chains(np.asarray(x, dtype=float))))


def split_rhat(x: np.ndarray) -> float:
    """Rank-normalized split-R-hat: the larger of the bulk and folded values."""
    split = split_chains(np.asarray(x, dtype=float))
    folded = np.abs(split - np.median(split))
    return max(_rhat(rank_normalize(split)), _rhat(rank_normalize(folded)))
