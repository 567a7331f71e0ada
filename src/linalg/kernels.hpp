// Blocked CSR matvec kernels for the numeric core.
//
// Every production multiply runs one blocked body: 4-way unrolled inner
// loops over __restrict pointers.  The plain multiply_left also keeps the
// seed's straightforward loop as a reference, selected only when a test or
// bench calls set_kernel_mode(KernelMode::Scalar).  Both accumulate in the
// SAME ascending-index order with a single sequential accumulator chain, so
// their results are bitwise identical — the unrolling only pipelines the
// loads and multiplies; it never reassociates a floating-point sum and
// never contracts into FMAs.
//
// Uniformisation is done once per solve: uniformise() turns a rate matrix
// into P = I + Q/lambda (off-diagonal probabilities plus per-row stay
// mass), and the uniformised kernels are the blocked multiply loops over
// that matrix with one stay term per row.  They perform the same operations
// in the same order as dividing rate/lambda on the fly, so they are bitwise
// identical to the on-the-fly reference kept below.
#ifndef ARCADE_LINALG_KERNELS_HPP
#define ARCADE_LINALG_KERNELS_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace arcade::linalg {

enum class KernelMode {
    Blocked,  ///< unrolled kernels (default)
    Scalar,   ///< the seed's reference loop (multiply_left only)
    Simd,     ///< kept for perfbench; runs the blocked kernels
};

/// Kept for perfbench; always false.
[[nodiscard]] bool simd_available();

/// Current mode; initially Blocked.
[[nodiscard]] KernelMode kernel_mode();

/// Overrides the mode at runtime (atomic; used by identity tests/benches).
void set_kernel_mode(KernelMode mode);

/// acc + sum of vals[k]*x[cols[k]] over one CSR row range [begin,end), in
/// ascending index order.  The unrolled body chains the adds
/// (((acc+t0)+t1)+t2)+t3 — the association of the one-at-a-time loop —
/// while the four loads and multiplies pipeline.  The uniformised right
/// multiply and the Gauss–Seidel sweeps share it.
inline double row_dot(const Index* __restrict cols, const double* __restrict vals,
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

/// y = x^T * M (distribution propagation).  `x.size()==rows`, `y.size()==cols`.
void multiply_left(const CsrMatrix& m, std::span<const double> x, std::span<double> y);

/// The uniformisation rate for a chain whose largest exit rate is
/// `max_exit_rate`: 2% above it, floored away from zero.  Every transient,
/// bounded-until and accumulated-reward solve uses this one formula.
[[nodiscard]] double uniformisation_rate(double max_exit_rate);

/// P = I + Q/lambda of a rate matrix, built once per solve by uniformise().
struct UniformisedMatrix {
    /// Off-diagonal jump probabilities rate/lambda in the rate matrix's
    /// (ascending) column order; the diagonal is dropped and absorbing rows
    /// are empty.
    CsrMatrix jumps;
    /// Per-row stay mass 1 - (sum of the row's jumps), summed in that order.
    std::vector<double> stay;
    double lambda = 0.0;

    [[nodiscard]] std::size_t rows() const noexcept { return stay.size(); }
};

/// Uniformises `rates` at `lambda`.  When `absorbing` is given, its states
/// lose every outgoing transition (stay mass 1) — exactly the matrix of the
/// chain with those rows removed, without building that chain.
[[nodiscard]] UniformisedMatrix uniformise(const CsrMatrix& rates, double lambda,
                                           const std::vector<bool>* absorbing = nullptr);

/// One forward step out = in * P: each row with in[i] != 0 scatters
/// in[i]*jump and then adds in[i]*stay[i] to out[i].  `out` is overwritten.
void uniformised_multiply_left(const UniformisedMatrix& p, std::span<const double> in,
                               std::span<double> out);

/// The column-vector form next = P * cur, the stay term stay[i]*cur[i]
/// added LAST (the bounded-until backward recurrence).
void uniformised_multiply_right(const UniformisedMatrix& p, std::span<const double> cur,
                                std::span<double> next);

/// The same forward step computed on the fly from the rate matrix, dividing
/// every rate by `lambda` as it goes — the reference the precomputed
/// kernels are bitwise identical to.  `out` is overwritten.
void uniformised_multiply_left(const CsrMatrix& rates, double lambda,
                               std::span<const double> in, std::span<double> out);

}  // namespace arcade::linalg

#endif  // ARCADE_LINALG_KERNELS_HPP
