"""voxalign: deterministic voxel-to-embedding alignment toolkit.

Numeric core (Gram/centering/correlations/ridge), representational
alignment (HSIC, CKA, RDM/RSA, layer analyses), multi-granularity losses
with analytic gradients, a dual-branch MLP decoder with explicit
backward, planted-structure synthetic data, training/evaluation, and a
lasso back-projection of learned codes into voxel space.
"""

from .alignment import (
    LayerStack,
    Rdm,
    cka,
    hsic,
    layer_cka_heatmap,
    rdm_from_features,
    region_layer_rsa,
    rsa,
)
from .data import (
    Dataset,
    RegionMask,
    SynthConfig,
    average_layers,
    fuse_targets,
    load_dataset,
    save_dataset,
    split_regions,
    synth_generate,
)
from .errors import (
    DegenerateInput,
    FormatError,
    InvalidState,
    NumericalFailure,
    RangeError,
    ShapeMismatch,
    UsageError,
    VoxalignError,
)
from .lasso import BackprojectResult, LassoResult, backproject, kkt_violation, lasso_fit
from .linalg import apply_centering, cosine, gram_linear, pearson, ridge_solve, spearman
from .losses import (
    CrecLoss,
    ImageLoss,
    LossValueGrad,
    MgLoss,
    TextLoss,
    cka_loss,
    crec_loss,
    grad_check,
    image_total_loss,
    mg_loss,
    mse_loss,
    sims_loss,
    sims_vector,
    text_total_loss,
)
from .matio import load_matrices, load_matrix, save_matrices, save_matrix
from .metrics import pixcorr, pixcorr_batch, ssim, ssim_batch, two_way_identification
from .model import (
    ModelConfig,
    ModelParams,
    desk_config,
    image_branch_backward,
    image_branch_forward,
    init_params,
    load_params,
    mlp_block_forward,
    param_count,
    save_params,
    text_branch_backward,
    text_branch_forward,
)
from .optim import adam_step
from .rng import Rng
from .training import (
    TrainConfig,
    TrainReport,
    evaluate,
    layer_range_scan,
    run_ablation,
    train,
)

__version__ = "0.2.0"
