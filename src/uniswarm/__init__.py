"""Deterministic simulator and analysis tools for sampled-data distributed
control of unicycle swarms on proximity networks."""

from .conditions import (ConditionReport, InitialDiagnostics, LeaderDegreeReport,
                         check_corollary1, check_theorem1, check_theorem2, check_theorem3,
                         initial_diagnostics, leader_degree_estimates)
from .control import ControlSignal, follower_control, leader_control, trajectory_controls
from .dynamics import (LEADER_CONSTANT, LEADER_DYNAMIC, LEADERLESS, AgentState,
                       ConvexityError, ModelParams, SwarmState, Trajectory,
                       advance_positions, closed_form_displacement, interpolate,
                       leader_discrete_step, leaderless_discrete_step, run_epoch,
                       sample_initial)
from .graphs import (GraphSweep, ProximityGraph, RingSet, SpectralError, SpectralSummary,
                     averaging_matrix, build_graph, connectivity, matrix_deviation,
                     normalized_laplacian, pairwise_distances, ring_sets, spectral_summary)
from .harness import (CampaignSummary, ConfigError, Obstacle, RunConfig, RunResult,
                      campaign, load_trajectory, run, scenario_fig3)
from .metrics import (EnvelopeAuditReport, MetricsBaseline, RecursionAuditReport, RunPass,
                      StepMetrics, geometric_envelope_audit, metrics_baseline, recursion_audit,
                      ring_containment_check, step_metrics, sync_detect)
from .reference import ReferenceSchedule

__version__ = "0.1.0"
