#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>

#include "support/errors.hpp"

namespace arcade::linalg {

bool simd_available() { return false; }

namespace {

std::atomic<KernelMode>& mode_slot() {
    static std::atomic<KernelMode> mode{KernelMode::Blocked};
    return mode;
}

/// Index of the diagonal entry in [begin,end), or end when absent.
inline std::size_t find_diag(const Index* cols, std::size_t begin, std::size_t end,
                             std::size_t row) {
    for (std::size_t k = begin; k < end; ++k) {
        if (cols[k] == row) return k;
    }
    return end;
}

/// y[cols[k]] += xr*vals[k] over [begin,end).  Columns are unique within a
/// row, so the four scatters never alias and each y element still receives
/// its contributions in row order.
inline void scatter_row(const Index* __restrict cols, const double* __restrict vals,
                        double xr, double* __restrict y, std::size_t begin,
                        std::size_t end) {
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
        y[cols[k]] += xr * vals[k];
        y[cols[k + 1]] += xr * vals[k + 1];
        y[cols[k + 2]] += xr * vals[k + 2];
        y[cols[k + 3]] += xr * vals[k + 3];
    }
    for (; k < end; ++k) y[cols[k]] += xr * vals[k];
}

void multiply_left_scalar(const CsrMatrix& m, std::span<const double> x,
                          std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
    const auto& row_ptr = m.row_ptr();
    const auto& col_idx = m.col_idx();
    const auto& values = m.values();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const double xr = x[r];
        if (xr == 0.0) continue;
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            y[col_idx[k]] += xr * values[k];
        }
    }
}

/// The blocked y = x^T * M.  kStay adds x[r]*stay[r] to y[r] after row r's
/// scatter — the uniformised step over a precomputed P.
template <bool kStay>
void left_rows(const CsrMatrix& m, const double* __restrict stay, std::span<const double> x,
               std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
    const std::size_t* __restrict row_ptr = m.row_ptr().data();
    const Index* __restrict cols = m.col_idx().data();
    const double* __restrict vals = m.values().data();
    const double* __restrict xp = x.data();
    double* __restrict yp = y.data();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const double xr = xp[r];
        if (xr == 0.0) continue;
        scatter_row(cols, vals, xr, yp, row_ptr[r], row_ptr[r + 1]);
        if constexpr (kStay) yp[r] += xr * stay[r];
    }
}

/// Off-diagonal scatter over [begin,end) for the on-the-fly reference:
/// out[col] += p*(val/lambda), with the moved-mass accumulator chained
/// sequentially in ascending entry order — the order uniformise() sums the
/// stay mass in.
inline double scatter_range(const Index* __restrict cols,
                            const double* __restrict vals, double p, double lambda,
                            double* __restrict out, std::size_t begin, std::size_t end,
                            double moved) {
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
        const double q0 = vals[k] / lambda;
        const double q1 = vals[k + 1] / lambda;
        const double q2 = vals[k + 2] / lambda;
        const double q3 = vals[k + 3] / lambda;
        out[cols[k]] += p * q0;
        out[cols[k + 1]] += p * q1;
        out[cols[k + 2]] += p * q2;
        out[cols[k + 3]] += p * q3;
        moved = (((moved + q0) + q1) + q2) + q3;
    }
    for (; k < end; ++k) {
        const double q = vals[k] / lambda;
        out[cols[k]] += p * q;
        moved += q;
    }
    return moved;
}

}  // namespace

KernelMode kernel_mode() { return mode_slot().load(std::memory_order_relaxed); }

void set_kernel_mode(KernelMode mode) {
    mode_slot().store(mode, std::memory_order_relaxed);
}

void multiply_left(const CsrMatrix& m, std::span<const double> x, std::span<double> y) {
    ARCADE_ASSERT(x.size() == m.rows() && y.size() == m.cols(),
                  "multiply_left shape mismatch");
    if (kernel_mode() == KernelMode::Scalar) {
        multiply_left_scalar(m, x, y);
    } else {
        left_rows<false>(m, nullptr, x, y);
    }
}

double uniformisation_rate(double max_exit_rate) {
    return std::max(max_exit_rate, 1e-12) * 1.02;
}

UniformisedMatrix uniformise(const CsrMatrix& rates, double lambda,
                             const std::vector<bool>* absorbing) {
    const std::size_t n = rates.rows();
    ARCADE_ASSERT(rates.cols() == n, "uniformise: rate matrix must be square");
    ARCADE_ASSERT(absorbing == nullptr || absorbing->size() == n,
                  "uniformise: absorbing mask size mismatch");
    const auto& row_ptr = rates.row_ptr();
    const auto& cols = rates.col_idx();
    const auto& vals = rates.values();
    const auto moves = [&](std::size_t i) { return absorbing == nullptr || !(*absorbing)[i]; };

    std::vector<std::size_t> jump_ptr(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t len = 0;
        if (moves(i)) {
            for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) len += cols[k] != i;
        }
        jump_ptr[i + 1] = jump_ptr[i] + len;
    }
    std::vector<Index> jump_cols(jump_ptr[n]);
    std::vector<double> jump_vals(jump_ptr[n]);
    std::vector<double> stay(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t out = jump_ptr[i];
        double moved = 0.0;
        if (moves(i)) {
            for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
                if (cols[k] == i) continue;
                const double q = vals[k] / lambda;
                jump_cols[out] = cols[k];
                jump_vals[out] = q;
                ++out;
                moved += q;
            }
        }
        stay[i] = 1.0 - moved;
    }
    return {CsrMatrix(n, n, std::move(jump_ptr), std::move(jump_cols), std::move(jump_vals)),
            std::move(stay), lambda};
}

void uniformised_multiply_left(const UniformisedMatrix& p, std::span<const double> in,
                               std::span<double> out) {
    ARCADE_ASSERT(in.size() == p.rows() && out.size() == p.rows(),
                  "uniformised_multiply_left shape mismatch");
    left_rows<true>(p.jumps, p.stay.data(), in, out);
}

void uniformised_multiply_right(const UniformisedMatrix& p, std::span<const double> cur,
                                std::span<double> next) {
    ARCADE_ASSERT(cur.size() == p.rows() && next.size() == p.rows(),
                  "uniformised_multiply_right shape mismatch");
    const std::size_t* __restrict row_ptr = p.jumps.row_ptr().data();
    const Index* __restrict cols = p.jumps.col_idx().data();
    const double* __restrict vals = p.jumps.values().data();
    const double* __restrict stay = p.stay.data();
    const double* __restrict xp = cur.data();
    double* __restrict yp = next.data();
    const auto row = [&](std::size_t r) {
        return row_dot(cols, vals, xp, row_ptr[r], row_ptr[r + 1], 0.0) + stay[r] * xp[r];
    };
    const std::size_t rows = p.rows();
    // Four-row blocks give the compiler four independent dependency chains;
    // within each row the dot product stays in ascending order and the stay
    // term is added LAST.
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        yp[r] = row(r);
        yp[r + 1] = row(r + 1);
        yp[r + 2] = row(r + 2);
        yp[r + 3] = row(r + 3);
    }
    for (; r < rows; ++r) yp[r] = row(r);
}

void uniformised_multiply_left(const CsrMatrix& rates, double lambda,
                               std::span<const double> in, std::span<double> out) {
    ARCADE_ASSERT(in.size() == rates.rows() && out.size() == rates.rows(),
                  "uniformised_multiply_left shape mismatch");
    std::fill(out.begin(), out.end(), 0.0);
    const std::size_t* __restrict row_ptr = rates.row_ptr().data();
    const Index* __restrict cols = rates.col_idx().data();
    const double* __restrict vals = rates.values().data();
    double* __restrict op = out.data();
    for (std::size_t i = 0; i < rates.rows(); ++i) {
        const double p = in[i];
        if (p == 0.0) continue;
        const std::size_t begin = row_ptr[i];
        const std::size_t end = row_ptr[i + 1];
        const std::size_t diag = find_diag(cols, begin, end, i);
        double moved = scatter_range(cols, vals, p, lambda, op, begin, diag, 0.0);
        if (diag != end) {
            moved = scatter_range(cols, vals, p, lambda, op, diag + 1, end, moved);
        }
        op[i] += p * (1.0 - moved);
    }
}

}  // namespace arcade::linalg
