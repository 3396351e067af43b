"""Gradient-variance-modulated large-batch optimization toolkit.

Per-module gradient-variance estimation via split-half cosine similarity,
adaptive per-module learning-rate multipliers for SGD and AdamW, and a
desk-scale training harness over synthetic multi-module models.
"""

from .tensor import (ShapeError, Tape, TapeError, Tensor, add, grad_check,
                     gradients, load_params, masked_select, matmul, multiply,
                     no_grad, pack_params, relu, squared_error)
from .models import (ConfigError, ModelConfig, ModulePartition, SyntheticModel,
                     TwoBlockLinearModel, make_dataset)
from .variance import (GroupedGradients, GroupingError, PhiEstimate,
                       brute_force_variance_oracle, cosine_similarity,
                       full_variance_estimate, per_sample_gradients,
                       phi_estimate, split_groups)
from .optim import (AgvmAdamW, AgvmSgd, DivergenceError, Modulator, OptimizerError,
                    compute_mu, force_unit_mu, load_checkpoint, save_checkpoint,
                    smooth_mu)
from .harness import (ExperimentConfig, LrSchedule, ReplicaError, RunResult, TraceRow,
                      ablation_suite, emit_csv, load_config, lr_at,
                      oracle_check, phi_gap, read_csv, run_experiment,
                      summary_text, variance_trace)

__version__ = "0.1.0"
