"""Spatially non-stationary near-field XL-MIMO channel toolkit.

Synthesizes masked near-field multi-carrier channels, partitions the array
from per-element power statistics, models a dynamic hybrid beamforming
receiver with subarray decoupling, estimates per-subarray channels with
block-sparse Bayesian learning (on- and off-grid), and reproduces the
benchmark experiments at desk scale.
"""

__version__ = "0.1.0"

from .config import SystemConfig
from .channel import ChannelRealization, assemble_channel
from .diffraction import Obstacle, diffraction_gain, diffraction_geometry, fresnel_cs
from .segmentation import (
    SegmentationResult,
    afm_segment,
    auc_score,
    pass_segment,
    rfem_segment,
)
from .dhbf import (
    MeasurementPlan,
    RfAllocation,
    build_combiners,
    decouple,
    mef_gaa,
    prune_subarrays,
    simulate_reception,
)
from .estimator import (
    EstimatorConfig,
    absbl_mmv,
    bsbl_baseline,
    dft_codebook,
    nmse,
    offgrid_refine,
    somp_baseline,
)
from .bcrb import bcrb_bound
from .scenario import ScenarioOptions, generate_scenario
from .experiments import ExperimentSpec, ResultTable, run_experiment

__all__ = [
    "SystemConfig", "ChannelRealization", "assemble_channel",
    "Obstacle", "diffraction_gain", "diffraction_geometry", "fresnel_cs",
    "SegmentationResult", "afm_segment", "auc_score", "pass_segment",
    "rfem_segment",
    "MeasurementPlan", "RfAllocation", "build_combiners", "decouple",
    "mef_gaa", "prune_subarrays", "simulate_reception",
    "EstimatorConfig", "absbl_mmv", "bsbl_baseline",
    "dft_codebook", "nmse", "offgrid_refine", "somp_baseline",
    "bcrb_bound",
    "ScenarioOptions", "generate_scenario",
    "ExperimentSpec", "ResultTable", "run_experiment",
]
