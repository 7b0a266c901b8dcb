"""Matched decoding of coded transmission over ISI channels.

A simulation library for joint trellis decoding of convolutionally
encoded PAM over FIR ISI channels using a merged non-linear binary
trellis, reduced-state sequence estimation, and a non-coherent CPM
receiver chain (differential detection, whitened matched filter, FIR
noise whitening), plus a Monte-Carlo BER harness and CLI.
"""

from .channel import fir_awgn_channel, make_rng, normal_from_uniform
from .conv_code import ConvCode, build_conv_trellis, conv_encode, parse_octal_generators
from .cpm import (
    CpmParams,
    add_waveform_awgn,
    b999_bandwidth,
    cpm_modulate,
    diff_demodulate,
    matched_filter_downsample,
    receive_lowpass,
    transmit_receive,
)
from .equalizers import (
    BcjrResult,
    DecodeResult,
    PartitionSpec,
    bcjr_equalize,
    build_isi_trellis,
    build_std_trellis,
    compensate_edges,
    dfse_equalize,
    rsse_decode,
    soft_viterbi_decode,
    viterbi_mlse,
)
from .matched_encoder import (
    IsiResponse,
    MatchedTrellis,
    build_matched_trellis,
    edge_offsets,
    matched_encode,
    offset_constant,
    serial_reference,
    state_counts,
)
from .trellis import TrellisSpec
from .whitening import (
    WhiteningDesign,
    apply_whitening,
    apply_wmf,
    design_whitening,
    estimate_noise_acf,
    load_whitening_design,
    overall_isi,
    sampled_pulse_acf,
    save_whitening_design,
    spectral_factorize,
    yule_walker,
)

__version__ = "0.1.0"
