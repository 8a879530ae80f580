"""Waveform-domain anti-spoofing toolkit.

Quantile-based "genuinization" of 16-bit speech amplitudes (basic,
dithered and random-reference modes, each one genuinize call against a
target CDF or a reference_pool) together with the classical countermeasure
stack it attacks and defends: energy VAD, LFCC features, diagonal-covariance
GMM classifiers, EER scoring, and a seeded attacker/countermeasure scenario
matrix runner.
"""

from .errors import ConfigError, FormatError, InputError, ToolError
from .experiment import (
    ACTIONS,
    TRAIN_COMBOS,
    DatasetManifest,
    ManifestEntry,
    RunConfig,
    ScenarioResult,
    ScenarioSpec,
    SeedRole,
    enumerate_scenarios,
    load_run_setup,
    read_manifest_csv,
    results_to_csv,
    role_seed,
    run_matrix,
    run_scenario,
    validate_manifest,
)
from .features import (
    FeatureMatrix,
    LfccConfig,
    append_deltas,
    get_extractor,
    lfcc,
    load_features,
    register_extractor,
    save_features,
)
from .genuinize import GenuinizeParams, file_streams, genuinize, reference_pool
from .gmm import (
    GmmModel,
    Trial,
    compute_eer,
    eer_from_scores,
    gmm_loglik,
    load_gmm,
    load_scores,
    save_gmm,
    save_scores,
    score_trial,
    train_gmm,
)
from .pmf import (
    Cdf,
    Pmf,
    cdf_from_pmf,
    estimate_pmf,
    extend_cdf,
    load_pmf,
    save_pmf,
    tv_distance,
)
from .synth import make_toy_corpus
from .vad import VadConfig, VadMask, energy_vad, format_runs, mask_to_runs
from .waveform import (
    BASE_BITS,
    NUM_LEVELS,
    Waveform,
    amp_to_index,
    index_to_amp,
    read_wav,
    write_wav,
)

__version__ = "0.1.0"
