"""Inertial-relaxed inexact splitting: proximal-projection engine,
Douglas-Rachford and ADMM layers, subproblem engines, problem catalog and
benchmark harness."""

from .errors import (CGBreakdown, LineSearchFailure, OracleFailure,
                     ParameterError, ParseError, ZeroVectorError)
from .hpp import (HPPResult, InertiaRelaxParams, ProxCertificate,
                  alvarez_attouch_check, beta_of_rho_bar,
                  error_criterion_holds, extrapolate, fejer_check,
                  gauss_bounds_hold, q_eval, relaxed_projection,
                  rho_bar_of_beta, run_hpp, smallest_positive_root,
                  validate_params)
from .admm import (ADMMParams, ADMMResult, AdmmProblem, Criterion,
                   FToBAdapter, PrimalDualTriple, admm_acceptance,
                   admm_extrapolate, multiplier_candidate, p_update, run_admm,
                   theta_admm)
from .dr import (DRParams, DRResult, SplitTriple, a_step, classical_dr_step,
                 dr_acceptance, dr_update, embed_to_dr, embed_to_hpp, run_dr,
                 theta)
from .subsolvers import (CGSession, CompositeProblem, FistaConfig,
                         LBFGSFProcedure, LBFGSSession, QuadraticFProcedure,
                         fista_solve, soft_threshold)
from .problems import (DesignMatrix, LassoProblem, LogisticProblem,
                       l1_kkt_dist_inf, lasso_admm_problem, lasso_composite,
                       load_dense_csv, load_libsvm, logistic_admm_problem,
                       logistic_composite, reference_minimizer,
                       synthetic_lasso, synthetic_logistic)
from .records import RunRecord

__version__ = "0.1.0"
