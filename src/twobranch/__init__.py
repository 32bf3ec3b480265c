"""Two-branch image-text embedding with structure-preserving training.

The package trains a pair of small fully connected branches mapping
two feature views (images and sentences, or regions and phrases) into
one shared space, using a bi-directional ranking loss with within-view
structure terms, in-batch violated-triplet mining, and momentum SGD.
Evaluation covers bidirectional retrieval recall, phrase localization
(IoU recall, NMS, mAP), hard-negative fine-tuning, and weighted fusion
of global and region-phrase distances.
"""

from .errors import (
    BatchTooSmallError,
    ChecksumError,
    ConfigError,
    ConsistencyError,
    ContractViolationError,
    DimensionError,
    DivergenceError,
    EvaluationError,
    FormatError,
    TwoBranchError,
)
from .loss_mining import (
    FAMILY_NAMES,
    LossConfig,
    TripletSet,
    hinge_loss,
    mine_triplets,
)
from .network import (
    BranchSpec,
    NetworkParams,
    OptimizerState,
    backward_and_step,
    backward_branch,
    forward_branch,
    init_params,
    learning_rate,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)

__version__ = "0.1.0"

__all__ = [
    "BatchTooSmallError",
    "BranchSpec",
    "ChecksumError",
    "ConfigError",
    "ConsistencyError",
    "ContractViolationError",
    "DimensionError",
    "DivergenceError",
    "EvaluationError",
    "FAMILY_NAMES",
    "FormatError",
    "LossConfig",
    "NetworkParams",
    "OptimizerState",
    "TripletSet",
    "TwoBranchError",
    "backward_and_step",
    "backward_branch",
    "forward_branch",
    "hinge_loss",
    "init_params",
    "learning_rate",
    "load_checkpoint",
    "mine_triplets",
    "save_checkpoint",
    "sgd_step",
]
