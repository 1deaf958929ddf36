"""Diversity-regularized dataset condensation at desk scale.

Pairwise similarity kernels, diversity metrics (coverage, Vendi score,
intra-class cosine), a three-term diversity regularizer with analytic
gradients, and a squeeze/recover/relabel synthesis pipeline built on a
small tanh-MLP teacher. Everything is seeded and reproducible.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DimensionError, DireError, FormatError,
                     NumericalError, ParameterError, TrainingError)
from .matrix import Rng, as_matrix, rng_normal, row_l2_normalize
from .kernels import (BenchReport, bench_kernels, knn_distances,
                      pairwise_cosine_matrix, pairwise_cosine_matrix_naive,
                      pairwise_cosine_sum, pairwise_euclidean_matrix,
                      pairwise_euclidean_matrix_naive, pairwise_euclidean_sum,
                      worker_count)
from .embeddings import EmbeddingSet
from .metrics import (MetricsReport, coverage, intra_class_cosine,
                      metrics_report, sym_eig, sym_eigenvalues, vendi_score)
from .losses import (ALL_COMPONENTS, DireWeights, LossBreakdown, cd_loss,
                     cdm_loss, dire_loss, edm_loss, finite_diff_check,
                     finite_diff_grad)
from .teacher import (LabeledDataset, SoftLabels, TeacherModel,
                      evaluate_student, extract_features, extract_features_vjp,
                      gen_mixture, model_accuracy, relabel, softmax,
                      squeeze_train, teacher_logits)
from .synthesis import (RunConfig, SyntheticDataset, SynthesisLoss, recover,
                        total_loss_and_grad)
from .fileio import (ExperimentManifest, digest_file, dump_config, fnv1a64,
                     load_config, read_emb, read_labels, read_manifest,
                     read_teacher, write_emb, write_labels, write_manifest,
                     write_teacher)
from .pipeline import (DEFAULT_BENCHMARK, AblationReport, ComparisonReport,
                       SweepReport, ablate, directional_comparison,
                       evaluate_synthetic, make_benchmark, run_arm,
                       weight_sweep)
