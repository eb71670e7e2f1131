"""Structure learning for zero-field Ising models via interaction
screening: exact and Glauber samplers, a node-wise convex screening
loss with an l1 proximal solver, penalty schedules, sample-complexity
calculators, and executable verification oracles."""

from .errors import CapabilityError, InputError
from .estimator import (EdgeSet, NodeEstimate, edges_from_estimates,
                        fit_all_nodes, fit_node, lambda_schedule,
                        learn_structure, perfect_recovery, result_to_json,
                        square_error)
from .experiments import (ERROR_CSV_HEADER, NMIN_CSV_HEADER,
                          ExperimentManifest, loglog_slope,
                          manifest_from_dict, run_error_curve,
                          run_nmin_search, semilog_slope, write_rows_csv)
from .model import (ENUMERATION_LIMIT, IsingModel, beta_d, energy_exponent,
                    exact_distribution, exact_probability, load_model,
                    log_partition, make_grid_model, make_random_model,
                    model_from_json, model_to_json, save_model)
from .sampler import (RNG_ALGORITHM, GlauberConfig, SampleSet,
                      empirical_covariance, read_samples_binary,
                      read_samples_text, sample_exact, sample_glauber,
                      write_samples_binary, write_samples_text)
from .screening import (NodeView, evaluate, node_view, remainder_kernel,
                        remainder_kernel_floor, screening_gradient,
                        screening_value, taylor_remainder)
from .solver import (SolveReport, SolverConfig, kkt_residual, minimize,
                     soft_threshold)
from .theory import (CovarianceFloor, ModelParams, RscReport,
                     covariance_concentration_bound, coupling_error_bound,
                     coupling_error_sample_bound, covariance_floor_check,
                     exact_pair_covariance, gradient_sup_bound,
                     params_from_model, population_gradient_moments,
                     restricted_convexity_check, rsc_sample_bound,
                     sample_lower_bound, sample_upper_bound_existence,
                     sample_upper_bound_existence_log2,
                     structure_lnp_coefficient, structure_sample_bound,
                     support_bound, verification_report)

__version__ = "0.1.0"
