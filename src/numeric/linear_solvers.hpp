// Iterative linear-system solvers used by steady-state and unbounded-until
// computations.  All operate on CSR matrices.
#ifndef ARCADE_NUMERIC_LINEAR_SOLVERS_HPP
#define ARCADE_NUMERIC_LINEAR_SOLVERS_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace arcade::numeric {

/// Convergence parameters shared by the iterative methods.
struct SolverOptions {
    /// Termination threshold on the largest relative change of one sweep,
    /// |new - old| / max(|new|, 1e-300).
    double epsilon = 1e-12;
    std::size_t max_iterations = 1'000'000;
};

struct SolverResult {
    std::size_t iterations = 0;
    double final_error = 0.0;
};

/// Solves x = x P for a stochastic matrix P restricted to an irreducible
/// closed set, via Gauss–Seidel sweeps on the balance equations
///   x_j * (sum of outgoing) = sum_i x_i p_ij  (i != j),
/// then normalises x to sum to 1.
///
/// `rate_matrix` is a CTMC rate matrix (off-diagonal rates; diagonal ignored).
/// Throws ConvergenceError when the iteration budget is exhausted.
SolverResult steady_state_gauss_seidel(const linalg::CsrMatrix& rate_matrix,
                                       std::span<double> pi,
                                       const SolverOptions& options = {});

/// Solves the reachability linear system  x = A x + b  by Gauss–Seidel, where
/// A is sub-stochastic (spectral radius < 1 on the solved subset).
/// Used for unbounded until probabilities on the embedded DTMC.
SolverResult fixpoint_gauss_seidel(const linalg::CsrMatrix& a,
                                   std::span<const double> b, std::span<double> x,
                                   const SolverOptions& options = {});

}  // namespace arcade::numeric

#endif  // ARCADE_NUMERIC_LINEAR_SOLVERS_HPP
