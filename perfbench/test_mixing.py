"""Checks of the mixing diagnostics on series with known answers."""

import numpy as np

from mixing import bulk_ess, chain_matrix, split_rhat


def _ar1(rho, chains, draws, seed):
    rng = np.random.default_rng(seed)
    x = np.empty((chains, draws))
    x[:, 0] = rng.standard_normal(chains) / np.sqrt(1.0 - rho**2)
    noise = rng.standard_normal((chains, draws))
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


def test_iid_draws_have_ess_near_n_and_rhat_near_one():
    x = np.random.default_rng(1).standard_normal((8, 2000))
    assert abs(bulk_ess(x) / x.size - 1.0) < 0.1
    assert split_rhat(x) < 1.01


def test_ar1_ess_matches_closed_form():
    rho = 0.6
    x = _ar1(rho, chains=8, draws=4000, seed=2)
    expected = x.size * (1.0 - rho) / (1.0 + rho)
    assert abs(bulk_ess(x) / expected - 1.0) < 0.1


def test_rhat_flags_chains_stuck_apart():
    x = np.random.default_rng(3).standard_normal((4, 1000))
    x[0] += 2.0
    assert split_rhat(x) > 1.1


def test_chain_matrix_undoes_chain_major_layout():
    chains, count = 4, 10            # per_chain = 3; the last chain is short
    per_chain = 3
    flat = np.array([c * 100 + k for c in range(chains) for k in range(per_chain)])[:count]
    x = chain_matrix(flat, count, chains)
    assert x.shape == (3, 3)
    assert x[1].tolist() == [100, 101, 102]
