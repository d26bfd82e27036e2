"""Trainable voxel radiance field for radio spatial-spectrum synthesis."""

from .voxel_grid import Aabb, VoxelGrid, init_grid, interpolate, upsample
from .field_model import FieldModel, GradientSet, init_field_model, query_density, query_signal
from .renderer import (
    SceneGeometry,
    aggregate_rssi,
    composite,
    direction_from_angles,
    render_spectra,
    render_spectrum,
)
from .objectives import LossReport, background_entropy, spectrum_mse, total_loss
from .trainer import TrainConfig, TrainResult, adam_step, fit_rssi_calibration, train
from .dataio import (
    Blob,
    Dataset,
    SyntheticScene,
    generate_dataset,
    load_checkpoint,
    load_dataset,
    oracle_render,
    read_spectrum,
    save_checkpoint,
    write_spectrum,
)
from .metrics import percentile_summary, rssi_error, ssim

__all__ = [
    "Aabb", "VoxelGrid", "init_grid", "interpolate", "upsample",
    "FieldModel", "GradientSet", "init_field_model", "query_density", "query_signal",
    "SceneGeometry", "aggregate_rssi", "composite", "direction_from_angles",
    "render_spectra", "render_spectrum",
    "LossReport", "background_entropy", "spectrum_mse", "total_loss",
    "TrainConfig", "TrainResult", "adam_step", "fit_rssi_calibration", "train",
    "Blob", "Dataset", "SyntheticScene", "generate_dataset", "load_checkpoint",
    "load_dataset", "oracle_render", "read_spectrum", "save_checkpoint",
    "write_spectrum",
    "percentile_summary", "rssi_error", "ssim",
]

__version__ = "0.1.0"
