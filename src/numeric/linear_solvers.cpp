#include "numeric/linear_solvers.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "support/errors.hpp"

namespace arcade::numeric {

namespace {

/// The relative change of one entry (SolverOptions::epsilon).
double criterion(double newv, double oldv) {
    return std::abs(newv - oldv) / std::max(std::abs(newv), 1e-300);
}

/// `a` with its diagonal split out: the off-diagonal entries keep their
/// ascending column order, `diag[i]` is a(i,i) (0.0 when not stored).
linalg::CsrMatrix split_diagonal(const linalg::CsrMatrix& a, std::vector<double>& diag) {
    const std::size_t n = a.rows();
    const auto& row_ptr = a.row_ptr();
    const auto& cols = a.col_idx();
    const auto& vals = a.values();
    diag.assign(n, 0.0);
    std::vector<std::size_t> ptr(n + 1, 0);
    std::vector<linalg::Index> off_cols;
    std::vector<double> off_vals;
    off_cols.reserve(cols.size());
    off_vals.reserve(cols.size());
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
            if (cols[k] == i) {
                diag[i] = vals[k];
            } else {
                off_cols.push_back(cols[k]);
                off_vals.push_back(vals[k]);
            }
        }
        ptr[i + 1] = off_cols.size();
    }
    return linalg::CsrMatrix(n, n, std::move(ptr), std::move(off_cols), std::move(off_vals));
}

}  // namespace

SolverResult steady_state_gauss_seidel(const linalg::CsrMatrix& rate_matrix,
                                       std::span<double> pi, const SolverOptions& options) {
    const std::size_t n = rate_matrix.rows();
    ARCADE_ASSERT(rate_matrix.cols() == n, "steady state needs square matrix");
    ARCADE_ASSERT(pi.size() == n, "pi size mismatch");

    // Precompute incoming edges (diagonal dropped) and exit rates.
    const linalg::CsrMatrix incoming = linalg::incoming_off_diagonal(rate_matrix);
    std::vector<double> exit_rate(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto cols = rate_matrix.row_columns(i);
        const auto vals = rate_matrix.row_values(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] != i) exit_rate[i] += vals[k];
        }
    }

    // Initial guess: uniform.
    const double u = 1.0 / static_cast<double>(n);
    for (double& x : pi) x = u;

    const std::size_t* row_ptr = incoming.row_ptr().data();
    const linalg::Index* cols = incoming.col_idx().data();
    const double* vals = incoming.values().data();
    SolverResult res;
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        double worst = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (exit_rate[j] <= 0.0) continue;  // absorbing: handled by caller
            const double inflow =
                linalg::row_dot(cols, vals, pi.data(), row_ptr[j], row_ptr[j + 1], 0.0);
            const double newv = inflow / exit_rate[j];
            worst = std::max(worst, criterion(newv, pi[j]));
            pi[j] = newv;
        }
        res.iterations = it + 1;
        res.final_error = worst;
        if (worst < options.epsilon) {
            linalg::normalize(pi);
            return res;
        }
    }
    throw ConvergenceError("steady_state_gauss_seidel: no convergence after " +
                           std::to_string(options.max_iterations) + " iterations (err=" +
                           std::to_string(res.final_error) + ")");
}

SolverResult fixpoint_gauss_seidel(const linalg::CsrMatrix& a, std::span<const double> b,
                                   std::span<double> x, const SolverOptions& options) {
    const std::size_t n = a.rows();
    ARCADE_ASSERT(a.cols() == n, "fixpoint needs square matrix");
    ARCADE_ASSERT(b.size() == n && x.size() == n, "rhs/solution size mismatch");

    std::vector<double> diag;
    const linalg::CsrMatrix off = split_diagonal(a, diag);
    for (const double d : diag) {
        ARCADE_ASSERT(d < 1.0, "fixpoint: diagonal >= 1 is singular");
    }

    const std::size_t* row_ptr = off.row_ptr().data();
    const linalg::Index* cols = off.col_idx().data();
    const double* vals = off.values().data();
    SolverResult res;
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        double worst = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            // x_i = a_ii x_i + acc  =>  x_i = acc / (1 - a_ii)
            const double acc =
                linalg::row_dot(cols, vals, x.data(), row_ptr[i], row_ptr[i + 1], b[i]);
            const double newv = acc / (1.0 - diag[i]);
            worst = std::max(worst, criterion(newv, x[i]));
            x[i] = newv;
        }
        res.iterations = it + 1;
        res.final_error = worst;
        if (worst < options.epsilon) return res;
    }
    throw ConvergenceError("fixpoint_gauss_seidel: no convergence after " +
                           std::to_string(options.max_iterations) + " iterations");
}

}  // namespace arcade::numeric
