// Batched transient analysis: one uniformisation drives a whole block of
// distributions.
//
// A BatchTransientEvolver evolves `width` distributions over the same chain
// through ONE Fox–Glynn weight sequence per step, using the multi-RHS
// CSR×dense-block kernels so each traversal of the uniformised matrix is
// amortised across the block.  The block is row-major —
// column c of state s lives at block()[s*width + c] — and every column is
// advanced with exactly the arithmetic a single-column TransientEvolver
// would perform, so column c stays bitwise identical to evolving that
// initial vector alone.  This is what lets the sweep runner fuse cells that
// share a chain and time grid without perturbing a single output byte.
#ifndef ARCADE_CTMC_TRANSIENT_BATCH_HPP
#define ARCADE_CTMC_TRANSIENT_BATCH_HPP

#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"

namespace arcade::ctmc {

/// Incremental uniformisation over a row-major block of distributions.
/// Construct once per (chain, columns), then call advance_to() with
/// non-decreasing times — the same protocol as TransientEvolver, with the
/// same kTimeTolerance duplicate/backwards semantics.
class BatchTransientEvolver {
public:
    /// `columns[c]` is the initial distribution of column c; every column
    /// must have chain.state_count() entries and there must be at least one.
    BatchTransientEvolver(const Ctmc& chain,
                          std::span<const std::vector<double>> columns,
                          TransientOptions options = {});
    ~BatchTransientEvolver();
    BatchTransientEvolver(const BatchTransientEvolver&) = delete;
    BatchTransientEvolver& operator=(const BatchTransientEvolver&) = delete;

    /// Advances every column to absolute time `t` (TransientEvolver
    /// semantics: duplicates within kTimeTolerance are a no-op, genuinely
    /// decreasing times throw InvalidArgument).
    void advance_to(double t);

    [[nodiscard]] std::size_t width() const noexcept { return width_; }
    [[nodiscard]] double time() const noexcept { return time_; }

    /// The current row-major block: state s, column c at [s*width() + c].
    [[nodiscard]] const std::vector<double>& block() const noexcept { return block_; }

    /// Copies column c into `out` (`out.size()` must be state_count()).
    void extract_column(std::size_t c, std::span<double> out) const;

    /// Column c as a fresh vector (convenience over extract_column).
    [[nodiscard]] std::vector<double> column(std::size_t c) const;

private:
    linalg::UniformisedMatrix p_;  ///< uniformise(chain), as TransientEvolver
    TransientOptions options_;
    std::size_t width_;
    std::vector<double> block_;
    std::vector<double> scratch_a_;  ///< pool-borrowed when options_.workspace
    std::vector<double> scratch_b_;
    double time_ = 0.0;

    void step(double dt);
};

}  // namespace arcade::ctmc

#endif  // ARCADE_CTMC_TRANSIENT_BATCH_HPP
