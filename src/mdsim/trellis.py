"""Generic finite-trellis container shared by all encoders and decoders."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Default bound on the states of a trellis that a ``build_*`` function
# allocates (config key ``state_cap``).
STATE_CAP = 1 << 20


def check_size(what: str, n: int, cap: int, hint: str) -> None:
    """Raise a ValueError naming ``what``, its ``n`` states and the cap,
    and ending in ``hint``, when ``n`` is above ``cap``."""
    if n > cap:
        raise ValueError(f"{what} would need {n} states (cap {cap}); {hint}")


@dataclass(frozen=True)
class TrellisSpec:
    """A time-invariant trellis.

    ``next_state[s, u]`` is the successor of state ``s`` under input ``u``.
    ``outputs[s, u]`` is the branch label: a real-valued hypothesis for
    signal trellises, or a vector of code bits (trailing axis) for code
    trellises.  Immutable after construction; safe to share across workers.
    """

    next_state: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        if self.outputs.shape[:2] != self.next_state.shape:
            raise ValueError("outputs must be indexed like next_state, "
                             "by (state, input)")
        self.next_state.setflags(write=False)
        self.outputs.setflags(write=False)

    @property
    def num_states(self) -> int:
        return self.next_state.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.next_state.shape[1]

    @cached_property
    def predecessors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Predecessor table padded to the largest fan-in.

        Returns ``(pred_state, pred_input, valid)``, each (num_states, fan);
        callers mask invalid slots to +inf (min-sum) or -inf (sum-product).
        The slots of a state hold its branches in ascending (state, input)
        order.  Add-compare-select compares them in slot order and keeps
        the first minimum, so ties resolve to the lower predecessor state,
        then the lower input.
        """
        S, U = self.num_states, self.num_inputs
        nxt = self.next_state.reshape(-1)
        # Branch ids s*U + u, sorted by next state, then by (s, u).
        branch = np.lexsort((np.arange(S * U), nxt))
        fan_in = np.bincount(nxt, minlength=S)
        slot = np.arange(S * U) - np.repeat(np.cumsum(fan_in) - fan_in, fan_in)
        at = (nxt[branch], slot)
        ps = np.zeros((S, int(fan_in.max())), dtype=np.int64)
        pu = np.zeros_like(ps)
        valid = np.zeros(ps.shape, dtype=bool)
        ps[at] = branch // U
        pu[at] = branch % U
        valid[at] = True
        for a in (ps, pu, valid):
            a.setflags(write=False)
        return ps, pu, valid


def window_next_state(base: int, digits: int) -> np.ndarray:
    """Successors in a trellis whose state is the last ``digits`` inputs,
    newest in the least significant base-``base`` digit."""
    S = base**digits
    # state s under input u goes to (s * base + u) % S, and s * base + u
    # is the flat index of (s, u)
    return np.arange(S * base).reshape(S, base) % S


@lru_cache(maxsize=16)
def window_trellis(base: int, digits: int) -> TrellisSpec:
    """The unlabeled trellis of the last ``digits`` inputs: the window a
    reduced-state receiver searches, whose branch hypotheses come from
    its survivor registers, not from the window.  Built once per
    (``base``, ``digits``), so that every call of a receiver shares one
    window and its cached predecessor table."""
    next_state = window_next_state(base, digits)
    return TrellisSpec(next_state=next_state, outputs=np.zeros(next_state.shape))
