"""Inertial-relaxed inexact splitting: proximal-projection engine,
Douglas-Rachford and ADMM layers, subproblem engines, problem catalog and
benchmark harness."""

from .errors import (CGBreakdown, LineSearchFailure, ParameterError,
                     ParseError)
from .hpp import (InertiaRelaxParams, alvarez_attouch_check,
                  beta_of_rho_bar, fejer_check, q_eval, rho_bar_of_beta)
from .admm import (ADMMParams, AdmmProblem, Criterion, PrimalDualTriple,
                   run_admm)
from .dr import DRParams, SplitTriple, classical_dr_step, run_dr, run_hpp
from .subsolvers import (FistaConfig, LBFGSFProcedure, QuadraticFProcedure,
                         fista_solve, soft_threshold)
from .problems import (DesignMatrix, LassoProblem, LogisticProblem,
                       lasso_admm_problem, load_dense_csv,
                       load_libsvm, logistic_admm_problem,
                       reference_minimizer, synthetic_lasso,
                       synthetic_logistic)
from .records import RunRecord, RunResult

__version__ = "0.1.0"
