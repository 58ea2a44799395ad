"""Deterministic simulator and analysis toolkit for communication-limited
distributed stochastic convex optimization.

Public surface: stochastic objectives with splittable per-worker noise
streams, the accelerated and plain local-update drivers plus their minibatch
baselines, stability diagnostics (potentials, transfer-matrix norms, the
piecewise-curvature instability experiment), and the experiment harness with
its CSV/JSON artifacts and command-line front end.
"""

from .algorithms import (AgdTrajectory, DivergenceError, Hyper, ReplicaResult,
                         RunResult, ScheduleError, agd_run, fedac_run,
                         fedavg_run, mb_acsgd_run, mb_sgd_run, replica_mean,
                         run_replicas, schedule_fedac1, schedule_fedac2,
                         schedule_vanilla, worker_mean)
from .dataio import (DataFormatError, Dataset, DatasetStats, dataset_stats,
                     load_dataset, parse_libsvm, row_norms_sq)
from .diagnostics import (ConstructionError, InstabilityRegionError,
                          InstabilityResult, InstabilityVerdict,
                          NormBoundReport, NormBoundRow,
                          PiecewiseCurvature1D, PotentialReport,
                          construct_instability_objective,
                          instability_experiment, norm_bound_fedac1,
                          norm_bound_draws, norm_bound_fedac2,
                          norm_bound_sweep, potential_phi,
                          potential_psi, potential_report, sample_admissible,
                          spectral_norm_2x2, transfer_matrix_fedac1,
                          transfer_matrix_fedac2, transfer_matrix_from_hyper,
                          transformed_norm)
from .harness import (ALGORITHMS, DEFAULT_ETA_GRID, CellResult, ConfigError,
                      EvalRecord, ExperimentConfig, OptimumError, OptimumResult,
                      RecordRow, SweepRow, build_config, build_objective,
                      cached_optimum, compute_optimum, make_synthetic_logistic,
                      parse_config_file, parse_config_text, read_records_csv,
                      read_sweep_csv, run_cell, run_group, tune_and_sweep,
                      write_records_csv, write_records_json, write_sweep_csv,
                      write_sweep_json)
from .objectives import (Augmented, BatchedOracle, GradSample, Logistic,
                         Objective, Quadratic, smoothness_bounds)
from .rng import StreamBundle
from .verify import CheckResult, run_all

__version__ = "0.1.0"
