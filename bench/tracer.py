"""Outside-in span tracer for the mdsim receiver chain.

The tracer edits no library code.  It swaps module attributes: every
``mdsim`` module that holds a reference to a traced function gets a
recording wrapper instead, so the calls that the harness, the CPM front
end, the whitening stage and the equalizers make at run time are the
ones recorded, and the traced sweep is the real sweep.

Spans (name, start, end, parent) are kept in memory and summarised or
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Traced:
    """One traced library function and what its spans record."""

    module: str
    function: str
    # Span-name suffix computed from the bound call arguments.
    label: Callable | None = None
    # Computed trellis branches of one call (the ns_per_branch base).
    branches: Callable[[dict], int] | None = None
    # Decoders: the number of blocks one call decodes.
    decoder: bool = False
    # Record this span but none of the traced calls made inside it.
    opaque: bool = False
    # Called with the tracer and the call's result.
    on_result: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


def _blocks(obs) -> int:
    return int(np.shape(obs)[0]) if np.ndim(obs) == 2 else 1


def _viterbi_label(tracer: "Tracer", a: dict) -> str:
    """MD and STD both run viterbi_mlse; their trellises differ in states."""
    n = a["trellis"].num_states
    return tracer.state_labels.get(n, f"S{n}")


def _label_md(tracer: "Tracer", mt) -> None:
    tracer.state_labels[mt.trellis.num_states] = "MD"


def _label_std(tracer: "Tracer", trellis) -> None:
    tracer.state_labels[trellis.num_states] = "STD"


TRACED = (
    # Trellis receivers.  The branch count is the computed number of
    # add-compare-select branches the call evaluates.
    Traced("equalizers", "viterbi_mlse", label=_viterbi_label, decoder=True,
           branches=lambda a: np.size(a["obs"]) * a["trellis"].num_states
           * a["trellis"].num_inputs),
    Traced("equalizers", "rsse_decode", decoder=True,
           label=lambda t, a: f"MD-RSSE{a['part'].num_hyperstates}",
           branches=lambda a: np.size(a["obs"]) * a["part"].num_hyperstates * 2),
    Traced("equalizers", "dfse_equalize", decoder=True,
           branches=lambda a: np.size(a["obs"]) * a["M"] ** a["kept_symbols"] * a["M"]),
    Traced("equalizers", "bcjr_equalize", decoder=True,
           branches=lambda a: 3 * np.size(a["obs"]) * a["isi_trellis"].num_states
           * a["isi_trellis"].num_inputs),
    Traced("equalizers", "soft_viterbi_decode",
           branches=lambda a: np.size(a["llrs"]) // a["code"].n
           * a["code"].num_states * 2),
    # CPM front end, WMF and whitening (per block).
    Traced("cpm", "transmit_receive"),
    Traced("cpm", "cpm_modulate"),
    Traced("cpm", "add_waveform_awgn"),
    Traced("cpm", "receive_lowpass"),
    Traced("cpm", "diff_demodulate"),
    Traced("cpm", "matched_filter_downsample"),
    Traced("whitening", "apply_wmf"),
    Traced("whitening", "apply_whitening"),
    # Chain set-up: bandwidth and whitening calibration.
    Traced("cpm", "b999_bandwidth", opaque=True),
    Traced("whitening", "design_whitening"),
    Traced("whitening", "estimate_noise_acf", opaque=True),
    # PAM front end (per block).
    Traced("conv_code", "conv_encode"),
    Traced("channel", "fir_awgn_channel"),
    Traced("equalizers", "compensate_edges"),
    # Trellis construction; the call counts show rebuilds.
    Traced("conv_code", "build_conv_trellis"),
    Traced("matched_encoder", "build_matched_trellis", on_result=_label_md),
    Traced("equalizers", "build_std_trellis", on_result=_label_std),
    Traced("equalizers", "build_isi_trellis"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "branches", "blocks")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.branches = 0
        self.blocks = 0


class Tracer:
    """Records spans for the calls into the functions in ``TRACED``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.state_labels: dict[int, str] = {}  # trellis states -> MD / STD
        self._stack: list[int] = []
        self._opaque = 0
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        self.spans.append(Span(name, time.perf_counter(),
                               self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, spec: Traced):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            a = sig.bind(*args, **kwargs).arguments
            name = spec.name
            if spec.label is not None:
                name = f"{name}.{spec.label(tracer, a)}"
            idx = tracer.begin(name)
            span = tracer.spans[idx]
            if spec.branches is not None:
                span.branches = int(spec.branches(a))
            if spec.decoder:
                span.blocks = _blocks(a.get("obs"))
            tracer._opaque += spec.opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._opaque -= spec.opaque
                tracer.end(idx)
            if spec.on_result is not None:
                spec.on_result(tracer, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "mdsim" or n.startswith("mdsim."))]
        for spec in TRACED:
            orig = getattr(importlib.import_module(f"mdsim.{spec.module}"),
                           spec.function)
            wrapper = self._wrap(orig, spec)
            for mod in mods:
                if getattr(mod, spec.function, None) is orig:
                    setattr(mod, spec.function, wrapper)
                    self._undo.append((mod, spec.function, orig))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def records(self) -> list[dict]:
        """Spans with their self time, in start order."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self_s": s.end - s.start - child[i],
                 "branches": s.branches, "blocks": s.blocks}
                for i, s in enumerate(self.spans)]
