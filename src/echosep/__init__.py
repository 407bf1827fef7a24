"""Joint acoustic echo cancellation and blind source extraction in the STFT domain."""

from .stft import FrameSpec, analyze, synthesize, read_wav, write_wav
from .model import (
    DemixState,
    NumericsError,
    blocking_matrix,
    orthogonal_constraint_atf,
    covariance,
    cost,
    score_spherical,
    transmission_matrix,
    off_block_energy_db,
)
from .optimizer import (
    RunConfig,
    RunResult,
    run_joint,
    run_bnlms_ive,
    run_ive_only,
    run_ls_aec,
    run_unprocessed,
)
from .scenegen import (
    Scene,
    ScenarioConfig,
    render_narrowband,
    render_convolutive,
    save_scene,
    load_scene,
)
from .metrics import MetricsReport, component_pass, erle, ratios, evaluate_run

__version__ = "0.1.0"
