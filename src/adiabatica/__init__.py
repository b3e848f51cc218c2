"""Wave-packet adiabaticity toolkit for a moving two-level emitter in a shaped mode.

Exact split-operator propagation of the coupled two-channel problem, the
decoupled adiabatic reference evolution, pointwise and packet-averaged
adiabaticity parameters, overlap fidelity, and the reduction to (and inverse
construction of) effective time-dependent two-level models.
"""

__version__ = "0.1.0"

from .model import (AdiabaticFrame, DegeneratePointError, FrameCase,
                    GaussianMode, LinearMode, ModelParams, StandingWaveMode,
                    TabulatedMode, adiabatic_eigenvalues, adiabatic_frame,
                    adiabatic_gradient, bare_potential,
                    large_detuning_potential, mixing_angle,
                    mixing_angle_curvature, mixing_angle_slope)
from .grids import (ADIABATIC, BARE, Grid, SpinorField, expect_momentum,
                    expect_momentum_sq, expect_position, expect_grid_values,
                    expect_slope_momentum, gaussian_bare_state, mean_momentum,
                    mean_position, packet_width, to_adiabatic, to_bare)
from .propagation import (AdiabaticPropagator, DomainGuardError,
                          FullPropagator, RunRecord, Scenario,
                          default_time_step, run_scenario, trajectory_rows)
from .diagnostics import (AdiabaticityParts, NodeLimitReport,
                          adiabaticity_max_locus, adiabaticity_parts, fidelity,
                          initial_channel_weights, local_adiabaticity,
                          lorentzian_peak_integral, node_limit_probe,
                          packet_adiabaticity)
from .twolevel import (EffectiveModel, TrajectorySet, TwoLevelTrace,
                       classical_trajectories, classical_trajectory_rows,
                       coupling_from_adiabaticity, solve_two_level,
                       substitution_model, time_adiabaticity,
                       trajectory_adiabaticity)

__all__ = [name for name in dir() if not name.startswith("_")]
