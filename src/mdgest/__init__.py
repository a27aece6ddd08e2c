"""Micro-Doppler arm-gesture synthesis, signatures, and classification."""

from .simulate import (
    Dataset,
    GestureLabel,
    IQRecord,
    ScattererTrack,
    SimConfig,
    default_grid,
    generate_dataset,
    gesture_tracks,
    simulate_record,
    synthesize,
)
from .tfr import Spectrogram, StftConfig, spectrogram, stft_power, to_gray
from .segmentation import MotionInterval, PbcConfig, detect, pbc, smooth, window
from .envelope import EnvelopePair, extract
from .features import EmpiricalFeatures, Trajectory, central_trajectory, empirical, trajectory
from .subspace import (
    ClassSubspace,
    PcaModel,
    SimilarityMatrix,
    canonical_correlations,
    class_subspace,
    fit_pca,
    similarity_table,
)
from .classify import DistanceKind, SvmModel, svm_predict
from .harness import ConfusionMatrix, EvalProtocol, PipelineConfig, evaluate, report, split

__version__ = "0.1.0"
