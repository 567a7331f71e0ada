// Blocked and SIMD CSR matvec kernels for the numeric core.
//
// The plain multiplies and the Gauss–Seidel gathers exist in three variants
// selected by KernelMode: Blocked (4-way unrolled inner loops over
// __restrict pointers, with the diagonal split out of the gathers so the
// hot path is branch-free), Simd (NEON vector bodies on aarch64; on x86-64
// the blocked bodies, which measured faster than AVX2 gathers; resolves to
// Blocked when the CPU lacks the extension) and Scalar (the seed's
// straightforward loops, kept as the reference).  All variants accumulate
// in the SAME ascending-index order with a single sequential accumulator
// chain, so their results are bitwise identical — the unrolling and
// vectorisation only pipeline the loads and multiplies, they never
// reassociate a floating-point sum and never contract into FMAs.
// ARCADE_KERNELS=scalar|blocked|simd selects the variant process-wide;
// tests and benches flip the mode at runtime via set_kernel_mode().
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
    Scalar,   ///< the seed's reference loops
    Simd,     ///< AVX2/NEON vector bodies (falls back to Blocked at runtime)
};

/// Process-wide default, read once from the ARCADE_KERNELS environment
/// variable ("scalar" selects the reference loops, "simd" the vector
/// bodies; anything else, or unset, the blocked kernels).
[[nodiscard]] KernelMode default_kernel_mode();

/// True when the running CPU supports the SIMD bodies (AVX2 on x86-64,
/// NEON on aarch64).  When false, KernelMode::Simd resolves to Blocked.
[[nodiscard]] bool simd_available();

/// Current mode; initially default_kernel_mode().
[[nodiscard]] KernelMode kernel_mode();

/// Overrides the mode at runtime (atomic; used by identity tests/benches).
void set_kernel_mode(KernelMode mode);

/// y = x^T * M (distribution propagation).  `x.size()==rows`, `y.size()==cols`.
void multiply_left(const CsrMatrix& m, std::span<const double> x, std::span<double> y);

/// y = M * x (backward solutions).  `x.size()==cols`, `y.size()==rows`.
void multiply_right(const CsrMatrix& m, std::span<const double> x, std::span<double> y);

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

/// acc + sum of vals[k]*x[cols[k]] over entries whose column != skip, in
/// ascending index order (the Gauss–Seidel inflow gather).
[[nodiscard]] double gather_skip_diag(std::span<const std::size_t> cols,
                                      std::span<const double> vals,
                                      std::span<const double> x, std::size_t skip,
                                      double acc);

/// Like gather_skip_diag, but also reports the skipped diagonal value
/// (0.0 when the row stores no diagonal) — the fixpoint Gauss–Seidel shape.
[[nodiscard]] double gather_capture_diag(std::span<const std::size_t> cols,
                                         std::span<const double> vals,
                                         std::span<const double> x, std::size_t row,
                                         double acc, double& diag);

}  // namespace arcade::linalg

#endif  // ARCADE_LINALG_KERNELS_HPP
