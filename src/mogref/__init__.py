"""Referring grounding on synthetic scenes with mixture-of-granularity attention.

A desk-scale stack: an autodiff kernel that computes in float32 by default
(float64 on request) beside a float64 finite-difference oracle,
dilation-masked multi-branch attention fused by a learned convex
gate, a DETR-style two-stage query decoder, Hungarian set matching, the
precision/statistics tooling, and a CLI that trains, evaluates, sweeps, and
summarizes annotation files.
"""

from mogref.data import (
    AnnotationRecord,
    GenerationError,
    Scene,
    SyntheticSceneSpec,
    ValidationError,
    Vocab,
    default_vocab,
    generate_scene,
    load_annotations,
    save_annotations,
    tokenize,
)
from mogref.matching import (
    Assignment,
    BBox,
    LossWeights,
    batch_assignment_loss,
    giou,
    giou_pairs,
    grounding_loss,
    hungarian,
    iou,
)
from mogref.metrics import (
    DatasetStats,
    EvalResult,
    dataset_stats,
    mean_precision,
    precision_at,
)
from mogref.mog import (
    GranularityMask,
    MoGAttention,
    MoGConfig,
    attention_logits,
    branch_attention,
    build_mask,
    gate_weights,
    mog_forward,
)
from mogref.model import ModelConfig, Prediction, SCSModel
from mogref.rng import RngState
from mogref.tensor import (
    DegenerateMaskError,
    Parameter,
    ShapeError,
    Tensor,
    backward,
    zero_grads,
)
from mogref.gradcheck import finite_difference_grad, run_gradcheck

__version__ = "0.1.0"
