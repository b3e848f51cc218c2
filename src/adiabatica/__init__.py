"""Wave-packet adiabaticity toolkit for a moving two-level emitter in a shaped mode.

Exact split-operator propagation of the coupled two-channel problem, the
decoupled adiabatic reference evolution, pointwise and packet-averaged
adiabaticity parameters, overlap fidelity, and the reduction to (and inverse
construction of) effective time-dependent two-level models.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .model import (AdiabaticFrame, DegeneratePointError, FrameCase,
                    GaussianMode, LinearMode, ModelParams, StandingWaveMode,
                    TabulatedMode, adiabatic_eigenvalues, adiabatic_frame,
                    mixing_angle)
from .grids import (ADIABATIC, BARE, Grid, SpinorField, expect_momentum,
                    expect_position, expect_grid_values, expect_slope_momentum,
                    gaussian_bare_state, mean_momentum, mean_position,
                    packet_width, to_adiabatic, to_bare)
from .propagation import (AdiabaticPropagator, DomainGuardError,
                          FullPropagator, RunRecord, Scenario, run_scenario)
from .diagnostics import (AdiabaticityParts, NodeLimitReport,
                          adiabaticity_max_locus, adiabaticity_parts, fidelity,
                          initial_channel_weights, local_adiabaticity,
                          lorentzian_peak_integral, node_limit_probe,
                          packet_adiabaticity)
from .twolevel import (EffectiveModel, coupling_from_adiabaticity,
                       substitution_model, time_adiabaticity)

# The names imported above; the submodules they come from are reached as
# attributes (adiabatica.model, ...) but are not part of the flat API.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
