// Batched transient analysis: one uniformisation drives a whole block of
// distributions.
//
// A BatchTransientEvolver steps `width` distributions over the same chain
// through powers of ONE uniformised matrix, using the multi-RHS
// CSR×dense-block kernel so each traversal of P is amortised across the
// block.  The block is row-major — column c of state s lives at
// [s*width + c] — and every power step advances each column with
// exactly the arithmetic uniformised_multiply_left performs on that column
// alone.  functional_series_batch reads a functional off every column per
// power and combines it with functional_series' own grid code, so column c
// of its result is bitwise the single-vector series.  This is what lets the
// sweep runner fuse cells that share a chain and time grid without
// perturbing a single output byte.
#ifndef ARCADE_CTMC_TRANSIENT_BATCH_HPP
#define ARCADE_CTMC_TRANSIENT_BATCH_HPP

#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"

namespace arcade::ctmc {

/// Powers of the uniformised chain applied to a row-major block of
/// distributions.
class BatchTransientEvolver {
public:
    /// `columns[c]` is the initial distribution of column c; every column
    /// must have chain.state_count() entries and there must be at least one.
    BatchTransientEvolver(const Ctmc& chain,
                          std::span<const std::vector<double>> columns,
                          TransientOptions options = {});

    /// block ← block · P: column c becomes uniformised_multiply_left(P,
    /// column c) bit for bit.
    void power_step();

    [[nodiscard]] std::size_t width() const noexcept { return width_; }
    /// The uniformisation rate of P (uniformise(chain).lambda).
    [[nodiscard]] double lambda() const noexcept { return p_.lambda; }

    /// Copies column c into `out` (`out.size()` must be state_count()).
    void extract_column(std::size_t c, std::span<double> out) const;

private:
    linalg::UniformisedMatrix p_;    ///< uniformise(chain)
    std::size_t width_;
    engine::ScratchVector block_;    ///< pool-borrowed when options.workspace
    engine::ScratchVector scratch_;
};

/// functional_series(uniformise(chain), columns[c], times, form, f, options)
/// for every column, from one batched power pass: result[c] is bitwise that
/// single-vector series.
[[nodiscard]] std::vector<std::vector<double>> functional_series_batch(
    const Ctmc& chain, std::span<const std::vector<double>> columns,
    std::span<const double> times, SeriesForm form, const DistributionFunctional& f,
    const TransientOptions& options = {});

}  // namespace arcade::ctmc

#endif  // ARCADE_CTMC_TRANSIENT_BATCH_HPP
