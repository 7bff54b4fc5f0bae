"""Evaluation toolkit for whole-body biometric detection and open-set identification.

Covers detection F1 scoring at multiple IoU thresholds (per dataset and
micro-pooled), the training loss functions as verified pure math,
deterministic dataset/batch/frame sampling plans, and the CMC / TAR@FAR /
FNIR-FPIR identification metric suite over gallery-probe protocols.
"""

from .detection import (
    DEFAULT_IOU_THRESHOLDS,
    DetectionReport,
    MatchCounts,
    evaluate_detections,
    iou,
    match_frame,
    prf1,
)
from .errors import (
    BiomevalError,
    FormatError,
    ParseError,
    ProtocolError,
    ValidationError,
)
from .identify import (
    DEFAULT_FAR_TARGETS,
    DEFAULT_RANKS,
    Curve,
    IdentificationEval,
    OperatingPoint,
    ScoreMatrix,
    SubjectTemplate,
    aggregate_gallery,
    build_gallery_templates,
    cmc,
    fnir_fpir,
    probe_matrix,
    rank_k_accuracy,
    roc_curve,
    score,
    tar_at_far,
)
from .io import (
    load_detections,
    load_embeddings,
    load_ground_truth,
    load_media_index,
    load_protocol,
    sniff_embedding_format,
    write_embeddings,
    write_protocol,
)
from .losses import (
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_MARGIN,
    LabeledBatch,
    ObjectnessSample,
    batch_hard_triplet,
    batch_hard_triplet_grad,
    bce,
    bce_grad,
    cross_entropy,
    cross_entropy_grad,
    detector_loss,
    grad_check,
    objectness_from_logits,
    recognition_loss,
    run_self_check,
    smooth_l1,
    smooth_l1_grad,
)
from .records import (
    BoundingBox,
    DetectionRecord,
    EmbeddingRecord,
    GalleryEntry,
    GroundTruthRecord,
    MediaRecord,
    ProbeEntry,
    ProtocolManifest,
)
from .sampling import (
    GENERATOR_NAME,
    STANDARD_TEST_STRIDES,
    BatchPlan,
    DatasetWeights,
    FrameWindow,
    dataset_balanced_weights,
    frame_window,
    pk_batches,
    sample_media,
)
from .stores import (
    DetectionStore,
    EmbeddingStore,
    GroundTruthStore,
    MediaIndex,
    ProtocolReport,
    validate_protocol,
)

__version__ = "0.1.0"
