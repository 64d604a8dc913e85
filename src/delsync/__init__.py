"""delsync: interactive synchronization of a binary file from a deletion-degraded copy.

A library and desk-scale simulator for the two-party protocol (matching,
divide-and-conquer deletion recovery, capacity-charged error correction),
together with closed-form bound calculators and an experiment harness.
"""

from .analysis import (
    BoundReport,
    baseline_bound_coefficient,
    bound_report,
    expected_code_bits_bound,
    expected_delimiter_bits_bound,
    module_bit_bounds,
    module_coefficients,
    redundancy_coefficient,
)
from .codes import (
    AmbiguousDecode,
    CodeSpec,
    NoCodewordFound,
    Syndrome,
    make_syndrome,
    multi_decode,
)
from .core import (
    BitSeq,
    ChannelOutcome,
    InvalidConfig,
    Message,
    ProtocolParams,
    Transcript,
    apply_deletion_channel,
    pivot_length,
    random_bits,
    substream,
)
from .harness import ExperimentConfig, Variant, parse_config, run_point, run_single, sweep
from .matching import (
    EncoderLayout,
    candidate_index,
    find_candidates,
    form_sections,
    partition_encoder,
    select_pivots,
)
from .protocol import Metrics, binary_entropy, error_correction_bits, synchronize
from .recovery import (
    case_payload,
    case_width,
    delimiter_length,
    locate_delimiter,
    recover_section,
)

__version__ = "0.1.0"
