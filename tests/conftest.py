import tracemalloc
import warnings

import pytest

from mdsim.whitening import design_whitening


@pytest.fixture
def calibration_peak():
    """tracemalloc peak in bytes of ``design_whitening(params, 11 dB,
    L_nw=1)`` on ``n_symbols`` pilots, after a small run has made its
    imports and cached taps."""
    def measure(params, cutoff, n_symbols):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # phase-step warnings of the pilots
            design_whitening(params, 11.0, 1, cutoff=cutoff, n_symbols=2_000)
            tracemalloc.start()
            try:
                design_whitening(params, 11.0, 1, cutoff=cutoff,
                                 n_symbols=n_symbols)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return measure
