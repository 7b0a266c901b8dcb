"""Bit-exact BCJR posteriors and LLRs.

The golden file holds ``bcjr_equalize``'s symbol posteriors and bit LLRs
as ``float.hex`` on one integer-rounded block over the taps of
``examples_cfg/pam.cfg``: equalizer memories 0-3, free and zero end
state, noise variances 1e-6, 0.245 and 1.0.  At 1e-6 most posteriors
underflow, so the LLRs go through the 1e-300 clamp.  The values are
those of the equalizer written as one ``scipy.special.logsumexp`` call
per step (``scipy_bcjr`` below), computed with numpy 2.4 and scipy 1.17
on x86-64; numpy's ``exp`` and ``log1p`` may round differently on other
builds.

``scipy_bcjr`` is also the oracle of a randomized test on dyadic data,
where the maximum of a log-sum-exp is often tied.

Regenerate (only when a change of the posteriors is intended) with
``PYTHONPATH=src python tests/test_bcjr_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from mdsim.channel import make_rng, normal_from_uniform
from mdsim.equalizers import bcjr_equalize, build_isi_trellis, compensate_edges
from mdsim.matched_encoder import IsiResponse

GOLDEN = Path(__file__).parent / "golden" / "bcjr_pam_taps.json"

H = IsiResponse([1.0, 0.6, 0.36, 0.216, 0.1296])
M = 4
CASES = [(mem, end, var) for mem in range(4) for end in (None, 0)
         for var in (1e-6, 0.245, 1.0)]


def scipy_bcjr(trellis, obs, noise_variance, *, end_state=None):
    """Log-domain BCJR from state 0 with one scipy logsumexp call per step.

    Returns the symbol posteriors, the bit LLRs, and how many of the
    log-sum-exp rows had a tied finite maximum.
    """
    obs = np.asarray(obs, dtype=np.float64)
    T = obs.size
    S, Mi = trellis.num_states, trellis.num_inputs
    n = Mi.bit_length() - 1
    hyp = trellis.outputs
    nxt = trellis.next_state
    ps, pu, valid = trellis.predecessors
    pad = np.where(valid, 0.0, -np.inf)
    inv2v = -0.5 / float(noise_variance)
    ties = 0

    def lse(a, axis=None):
        nonlocal ties
        amax = np.max(a, axis=axis, keepdims=True)
        ties += int(np.count_nonzero(
            (np.sum(a == amax, axis=axis) > 1) & np.isfinite(amax).squeeze()))
        return logsumexp(a, axis=axis)

    gammas = inv2v * (obs[:, None, None] - hyp[None, :, :]) ** 2

    alpha = np.full((T + 1, S), -np.inf)
    alpha[0, 0] = 0.0
    for t in range(T):
        a = alpha[t][ps] + gammas[t][ps, pu] + pad
        alpha[t + 1] = lse(a, axis=1)
        alpha[t + 1] -= alpha[t + 1].max()

    beta = np.full((T + 1, S), -np.inf)
    if end_state is None:
        beta[T] = 0.0
    else:
        beta[T, end_state] = 0.0
    for t in range(T - 1, -1, -1):
        beta[t] = lse(gammas[t] + beta[t + 1][nxt], axis=1)
        beta[t] -= beta[t].max()

    post = np.empty((T, Mi))
    for t in range(T):
        joint = alpha[t][:, None] + gammas[t] + beta[t + 1][nxt]
        log_pu = lse(joint, axis=0)
        log_pu -= lse(log_pu)
        post[t] = np.exp(log_pu)

    llrs = np.empty((T, n))
    log_post = np.log(np.maximum(post, 1e-300))
    u = np.arange(Mi)
    for i in range(n):
        bit = (u >> (n - 1 - i)) & 1
        llrs[:, i] = (lse(log_post[:, bit == 0], axis=1)
                      - lse(log_post[:, bit == 1], axis=1))
    return post, llrs.reshape(-1), ties


def make_obs() -> np.ndarray:
    """Integer-rounded observations of 20 random symbols."""
    idx = (make_rng(41).random(20) * M).astype(np.int64)
    obs = np.convolve(2.0 * idx - (M - 1), H.taps)[: idx.size]
    obs += 0.7 * normal_from_uniform(make_rng(42), obs.size)
    return np.round(compensate_edges(obs, H.taps, M))


def case_name(mem, end, var) -> str:
    return f"mem={mem} end={end} var={var:g}"


def hexes(a) -> str:
    return " ".join(float(v).hex() for v in np.ravel(a))


def run_cases(obs: np.ndarray) -> dict:
    out = {}
    for mem, end, var in CASES:
        res = bcjr_equalize(build_isi_trellis(H, M, memory=mem), obs, var,
                            end_state=end)
        out[case_name(mem, end, var)] = {
            "posteriors": hexes(res.symbol_posteriors),
            "llrs": hexes(res.bit_llrs)}
    return out


def test_golden_obs_reproduce():
    data = json.loads(GOLDEN.read_text())
    np.testing.assert_array_equal(make_obs(),
                                  np.array(data["obs"].split(), dtype=float))


def test_clamp_case_is_covered():
    obs = np.array(json.loads(GOLDEN.read_text())["obs"].split(), dtype=float)
    res = bcjr_equalize(build_isi_trellis(H, M, memory=3), obs, 1e-6)
    assert np.any(res.symbol_posteriors < 1e-300)


@pytest.mark.parametrize("case", CASES, ids=[case_name(*c) for c in CASES])
def test_bcjr_matches_golden_bits(case):
    data = json.loads(GOLDEN.read_text())
    obs = np.array(data["obs"].split(), dtype=float)
    mem, end, var = case
    res = bcjr_equalize(build_isi_trellis(H, M, memory=mem), obs, var,
                        end_state=end)
    want = data["cases"][case_name(*case)]
    assert hexes(res.symbol_posteriors) == want["posteriors"]
    assert hexes(res.bit_llrs) == want["llrs"]


@pytest.mark.parametrize("seed", range(16))
def test_bcjr_matches_scipy_oracle_bits(seed):
    """Dyadic taps and noise variance, with observations on a half-integer
    grid or midway between two hypotheses of a state, make many path
    metrics equal, so maxima tie.  Seeds 12-15 take M = 16: a step sums
    16 slot terms per state, which numpy adds pairwise over a contiguous
    axis and in order over an outer one."""
    rng = np.random.default_rng(seed)
    if seed < 12:
        Mi, mem = (2, 4, 8)[seed % 3], seed % 4
    else:
        Mi, mem = 16, 1 + seed % 2
    taps = np.concatenate([[1.0], rng.choice([0.5, 0.25, -0.5, 0.125],
                                             size=3)])
    tr = build_isi_trellis(IsiResponse(taps), Mi, memory=mem)
    T = int(rng.integers(8, 40))
    obs = np.round(2.0 * rng.normal(0.0, Mi, T)) / 2.0
    mid = rng.random(T) < 0.5
    s, u = rng.integers(tr.num_states, size=T), rng.integers(Mi - 1, size=T)
    obs[mid] = tr.outputs[s, u][mid] + taps[0]
    var = float(rng.choice([0.5, 1.0, 2.0]))
    end = (None, 0, int(rng.integers(tr.num_states)))[seed % 3]
    post, llrs, ties = scipy_bcjr(tr, obs, var, end_state=end)
    res = bcjr_equalize(tr, obs, var, end_state=end)
    assert hexes(res.symbol_posteriors) == hexes(post)
    assert hexes(res.bit_llrs) == hexes(llrs)
    assert ties > 0


if __name__ == "__main__":
    obs = make_obs()
    GOLDEN.write_text(json.dumps({
        "obs": " ".join(str(int(v)) for v in obs),
        "cases": run_cases(obs)}, indent=1) + "\n")
