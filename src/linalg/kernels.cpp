#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "support/errors.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define ARCADE_SIMD_X86 1
#elif defined(__aarch64__)
#define ARCADE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace arcade::linalg {

KernelMode default_kernel_mode() {
    static const KernelMode mode = [] {
        const char* env = std::getenv("ARCADE_KERNELS");
        if (env != nullptr) {
            const std::string value(env);
            if (value == "scalar") return KernelMode::Scalar;
            if (value == "simd") return KernelMode::Simd;
        }
        return KernelMode::Blocked;
    }();
    return mode;
}

bool simd_available() {
#if defined(ARCADE_SIMD_X86)
    static const bool ok = __builtin_cpu_supports("avx2") != 0;
    return ok;
#elif defined(ARCADE_SIMD_NEON)
    return true;  // NEON is baseline on aarch64
#else
    return false;
#endif
}

namespace {

std::atomic<KernelMode>& mode_slot() {
    static std::atomic<KernelMode> mode{default_kernel_mode()};
    return mode;
}

/// The mode the dispatchers act on: Simd degrades to Blocked when the CPU
/// lacks the extension, so "ARCADE_KERNELS=simd everywhere" is always safe.
KernelMode effective_mode() {
    const KernelMode mode = mode_slot().load(std::memory_order_relaxed);
    if (mode == KernelMode::Simd && !simd_available()) return KernelMode::Blocked;
    return mode;
}

/// Sequential-order dot product of one CSR row range against a dense vector.
/// The unrolled body chains the adds (((acc+t0)+t1)+t2)+t3 — identical
/// association to the scalar loop — while the four loads/multiplies pipeline.
inline double row_dot(const std::size_t* __restrict cols, const double* __restrict vals,
                      const double* __restrict x, std::size_t begin, std::size_t end,
                      double acc) {
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
        const double t0 = vals[k] * x[cols[k]];
        const double t1 = vals[k + 1] * x[cols[k + 1]];
        const double t2 = vals[k + 2] * x[cols[k + 2]];
        const double t3 = vals[k + 3] * x[cols[k + 3]];
        acc = (((acc + t0) + t1) + t2) + t3;
    }
    for (; k < end; ++k) acc += vals[k] * x[cols[k]];
    return acc;
}

/// Index of the diagonal entry in [begin,end), or end when absent.
inline std::size_t find_diag(const std::size_t* cols, std::size_t begin, std::size_t end,
                             std::size_t row) {
    for (std::size_t k = begin; k < end; ++k) {
        if (cols[k] == row) return k;
    }
    return end;
}

/// y[cols[k]] += xr*vals[k] over [begin,end).  Columns are unique within a
/// row, so the four scatters never alias and each y element still receives
/// its contributions in row order.
inline void scatter_row(const std::size_t* __restrict cols, const double* __restrict vals,
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
    const std::size_t* __restrict cols = m.col_idx().data();
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

void multiply_right_scalar(const CsrMatrix& m, std::span<const double> x,
                           std::span<double> y) {
    const auto& row_ptr = m.row_ptr();
    const auto& col_idx = m.col_idx();
    const auto& values = m.values();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        double acc = 0.0;
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            acc += values[k] * x[col_idx[k]];
        }
        y[r] = acc;
    }
}

/// The blocked y = M * x.  kStay adds stay[r]*x[r] LAST — the uniformised
/// backward step over a precomputed P.
template <bool kStay>
void right_rows(const CsrMatrix& m, const double* __restrict stay, std::span<const double> x,
                std::span<double> y) {
    const std::size_t* __restrict row_ptr = m.row_ptr().data();
    const std::size_t* __restrict cols = m.col_idx().data();
    const double* __restrict vals = m.values().data();
    const double* __restrict xp = x.data();
    double* __restrict yp = y.data();
    const auto row = [&](std::size_t r) {
        const double dot = row_dot(cols, vals, xp, row_ptr[r], row_ptr[r + 1], 0.0);
        if constexpr (kStay) {
            return dot + stay[r] * xp[r];
        } else {
            return dot;
        }
    };
    const std::size_t rows = m.rows();
    // Four-row blocks give the compiler four independent dependency chains;
    // within each row the dot product stays in ascending order.
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        yp[r] = row(r);
        yp[r + 1] = row(r + 1);
        yp[r + 2] = row(r + 2);
        yp[r + 3] = row(r + 3);
    }
    for (; r < rows; ++r) yp[r] = row(r);
}

/// Off-diagonal scatter over [begin,end) for the on-the-fly reference:
/// out[col] += p*(val/lambda), with the moved-mass accumulator chained
/// sequentially in ascending entry order — the order uniformise() sums the
/// stay mass in.
inline double scatter_range(const std::size_t* __restrict cols,
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

// ---------------------------------------------------------------------------
// SIMD bodies.  Only element-wise work is ever vectorised; every accumulator
// is folded lane by lane in the SAME sequential order as the scalar/blocked
// loops, and mul/add stay separate instructions (no FMA contraction), so the
// results are bitwise identical across all three modes.
//
// Which kernels get a vector body is a measured decision.  On AVX2
// Skylake-class cores the ordered-fold constraint makes gather-based
// reductions (vpgatherqq + four serial adds) slower than the blocked scalar
// unroll at EVERY row length — gathers cost one load-port micro-op per
// element, exactly like scalar loads, so only ALU work is saved and the
// extra shuffles eat the saving.  Every sparse kernel here is such a
// multiply-and-gather (the uniformised steps too: their divisions happen
// once, in uniformise()), so on x86 KernelMode::Simd runs the blocked
// bodies.  NEON pays no gather penalty (two-lane vectors load scalars
// directly), so aarch64 keeps vector bodies for the single-vector
// multiplies and the Gauss–Seidel gathers.
// ---------------------------------------------------------------------------

#if defined(ARCADE_SIMD_NEON)

double row_dot_simd(const std::size_t* __restrict cols, const double* __restrict vals,
                    const double* __restrict x, std::size_t begin, std::size_t end,
                    double acc) {
    std::size_t k = begin;
    for (; k + 2 <= end; k += 2) {
        const float64x2_t xs = {x[cols[k]], x[cols[k + 1]]};
        const float64x2_t t = vmulq_f64(vld1q_f64(vals + k), xs);
        acc = (acc + vgetq_lane_f64(t, 0)) + vgetq_lane_f64(t, 1);
    }
    for (; k < end; ++k) acc += vals[k] * x[cols[k]];
    return acc;
}

void mul_scatter_simd(const std::size_t* __restrict cols, const double* __restrict vals,
                      double xr, double* __restrict y, std::size_t begin,
                      std::size_t end) {
    std::size_t k = begin;
    const float64x2_t xv = vdupq_n_f64(xr);
    for (; k + 2 <= end; k += 2) {
        const float64x2_t t = vmulq_f64(xv, vld1q_f64(vals + k));
        y[cols[k]] += vgetq_lane_f64(t, 0);
        y[cols[k + 1]] += vgetq_lane_f64(t, 1);
    }
    for (; k < end; ++k) y[cols[k]] += xr * vals[k];
}

void multiply_left_simd(const CsrMatrix& m, std::span<const double> x,
                        std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
    const std::size_t* __restrict row_ptr = m.row_ptr().data();
    const std::size_t* __restrict cols = m.col_idx().data();
    const double* __restrict vals = m.values().data();
    const double* __restrict xp = x.data();
    double* __restrict yp = y.data();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const double xr = xp[r];
        if (xr == 0.0) continue;
        mul_scatter_simd(cols, vals, xr, yp, row_ptr[r], row_ptr[r + 1]);
    }
}

void multiply_right_simd(const CsrMatrix& m, std::span<const double> x,
                         std::span<double> y) {
    const std::size_t* __restrict row_ptr = m.row_ptr().data();
    const std::size_t* __restrict cols = m.col_idx().data();
    const double* __restrict vals = m.values().data();
    const double* __restrict xp = x.data();
    double* __restrict yp = y.data();
    const std::size_t rows = m.rows();
    // Same four-row blocking as the blocked kernel: each row's accumulation
    // is a serial dependency chain, so four independent rows in flight are
    // what keep the vector units busy.
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        yp[r] = row_dot_simd(cols, vals, xp, row_ptr[r], row_ptr[r + 1], 0.0);
        yp[r + 1] = row_dot_simd(cols, vals, xp, row_ptr[r + 1], row_ptr[r + 2], 0.0);
        yp[r + 2] = row_dot_simd(cols, vals, xp, row_ptr[r + 2], row_ptr[r + 3], 0.0);
        yp[r + 3] = row_dot_simd(cols, vals, xp, row_ptr[r + 3], row_ptr[r + 4], 0.0);
    }
    for (; r < rows; ++r) {
        yp[r] = row_dot_simd(cols, vals, xp, row_ptr[r], row_ptr[r + 1], 0.0);
    }
}

#endif  // ARCADE_SIMD_NEON

}  // namespace

KernelMode kernel_mode() { return mode_slot().load(std::memory_order_relaxed); }

void set_kernel_mode(KernelMode mode) {
    mode_slot().store(mode, std::memory_order_relaxed);
}

void multiply_left(const CsrMatrix& m, std::span<const double> x, std::span<double> y) {
    ARCADE_ASSERT(x.size() == m.rows() && y.size() == m.cols(),
                  "multiply_left shape mismatch");
    switch (effective_mode()) {
#if defined(ARCADE_SIMD_NEON)
        case KernelMode::Simd: multiply_left_simd(m, x, y); return;
#endif
        case KernelMode::Scalar: multiply_left_scalar(m, x, y); return;
        default: left_rows<false>(m, nullptr, x, y); return;
    }
}

void multiply_right(const CsrMatrix& m, std::span<const double> x, std::span<double> y) {
    ARCADE_ASSERT(x.size() == m.cols() && y.size() == m.rows(),
                  "multiply_right shape mismatch");
    switch (effective_mode()) {
#if defined(ARCADE_SIMD_NEON)
        case KernelMode::Simd: multiply_right_simd(m, x, y); return;
#endif
        case KernelMode::Scalar: multiply_right_scalar(m, x, y); return;
        default: right_rows<false>(m, nullptr, x, y); return;
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
    std::vector<std::size_t> jump_cols(jump_ptr[n]);
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
    right_rows<true>(p.jumps, p.stay.data(), cur, next);
}

void uniformised_multiply_left(const CsrMatrix& rates, double lambda,
                               std::span<const double> in, std::span<double> out) {
    ARCADE_ASSERT(in.size() == rates.rows() && out.size() == rates.rows(),
                  "uniformised_multiply_left shape mismatch");
    std::fill(out.begin(), out.end(), 0.0);
    const std::size_t* __restrict row_ptr = rates.row_ptr().data();
    const std::size_t* __restrict cols = rates.col_idx().data();
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

double gather_skip_diag(std::span<const std::size_t> cols, std::span<const double> vals,
                        std::span<const double> x, std::size_t skip, double acc) {
    const KernelMode mode = effective_mode();
    if (mode == KernelMode::Scalar) {
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] != skip) acc += vals[k] * x[cols[k]];
        }
        return acc;
    }
    const std::size_t diag = find_diag(cols.data(), 0, cols.size(), skip);
#if defined(ARCADE_SIMD_NEON)
    if (mode == KernelMode::Simd) {
        acc = row_dot_simd(cols.data(), vals.data(), x.data(), 0, diag, acc);
        if (diag != cols.size()) {
            acc = row_dot_simd(cols.data(), vals.data(), x.data(), diag + 1, cols.size(),
                               acc);
        }
        return acc;
    }
#endif
    acc = row_dot(cols.data(), vals.data(), x.data(), 0, diag, acc);
    if (diag != cols.size()) {
        acc = row_dot(cols.data(), vals.data(), x.data(), diag + 1, cols.size(), acc);
    }
    return acc;
}

double gather_capture_diag(std::span<const std::size_t> cols, std::span<const double> vals,
                           std::span<const double> x, std::size_t row, double acc,
                           double& diag) {
    diag = 0.0;
    const KernelMode mode = effective_mode();
    if (mode == KernelMode::Scalar) {
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == row) {
                diag = vals[k];
            } else {
                acc += vals[k] * x[cols[k]];
            }
        }
        return acc;
    }
    const std::size_t d = find_diag(cols.data(), 0, cols.size(), row);
#if defined(ARCADE_SIMD_NEON)
    if (mode == KernelMode::Simd) {
        acc = row_dot_simd(cols.data(), vals.data(), x.data(), 0, d, acc);
        if (d != cols.size()) {
            diag = vals[d];
            acc = row_dot_simd(cols.data(), vals.data(), x.data(), d + 1, cols.size(),
                               acc);
        }
        return acc;
    }
#endif
    acc = row_dot(cols.data(), vals.data(), x.data(), 0, d, acc);
    if (d != cols.size()) {
        diag = vals[d];
        acc = row_dot(cols.data(), vals.data(), x.data(), d + 1, cols.size(), acc);
    }
    return acc;
}

}  // namespace arcade::linalg
