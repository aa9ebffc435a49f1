"""mmpatch: cavity-model design and analysis of rectangular and circular
microstrip patch antennas on thick substrates at millimeter-wave frequencies.

The package synthesizes patch geometry for a target frequency, decomposes
the resonant input resistance into radiation, surface-wave, conductor, and
dielectric terms, places the feed for a 50 ohm match, and produces return
loss / VSWR / gain curves over frequency.
"""

from .circpatch import (
    CircLossReport,
    CircPatchDesign,
    circ_design_from_radius,
    directivity,
    effective_radius,
    efficiency,
    far_fields,
    feed_radius_for_match,
    gain,
    input_resistance_circ,
    loss_report,
    pattern_cut,
    pattern_cuts,
    resonant_frequency,
    resonant_radius,
    synth_circ,
)
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DomainError,
    PatchModelError,
    SingularFeedError,
    SynthesisError,
)
from .media import (
    Regime,
    RegimeReport,
    ResistanceBreakdown,
    SubstrateSpec,
    free_space_wavelength,
    surface_wave_factor,
    thickness_regime,
    wavenumber,
)
from .rectpatch import (
    RectDerived,
    RectPatchDesign,
    analyze_rect,
    eps_effective,
    input_resistance_rect,
    synth_rect,
)
from .response import (
    FrequencyResponse,
    ResonanceReport,
    ResonatorModel,
    SweepSpec,
    circ_resonator,
    extract_resonance,
    mismatch,
    rect_resonator,
    sweep,
)
from .specfun import Bracket, bessel_j, bessel_j_prime, find_root_bracketed, jprime_first_root

__version__ = "0.1.0"
