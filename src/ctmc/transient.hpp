// Transient analysis of CTMCs by uniformisation with Fox–Glynn weights.
//
// Provides both a single-time solver and an incremental time-series solver
// (stepping from grid point to grid point), which is what the figure
// benchmarks use: stepping re-uses the distribution at the previous grid
// point, so a 200-point curve costs a few thousand sparse matrix-vector
// products instead of hundreds of thousands.
#ifndef ARCADE_CTMC_TRANSIENT_HPP
#define ARCADE_CTMC_TRANSIENT_HPP

#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "engine/workspace.hpp"

namespace arcade::ctmc {

struct TransientOptions {
    double epsilon = 1e-12;  ///< Fox–Glynn truncation error per solve/step
    /// When set, uniformisation scratch vectors are borrowed from (and
    /// returned to) this pool instead of being allocated per evolver —
    /// an AnalysisSession passes its pool here so repeated curve
    /// evaluations on the same model reuse one set of buffers.
    engine::WorkspacePool* workspace = nullptr;
};

/// Distribution over states at time `t`, starting from `initial`.
[[nodiscard]] std::vector<double> transient_distribution(const Ctmc& chain,
                                                         std::span<const double> initial,
                                                         double t,
                                                         const TransientOptions& options = {});

/// Distribution at each time of the (ascending) grid `times`.
/// Returns one vector per grid point.
[[nodiscard]] std::vector<std::vector<double>> transient_series(
    const Ctmc& chain, std::span<const double> initial, std::span<const double> times,
    const TransientOptions& options = {});

/// Incremental uniformisation engine.  Construct once per (chain, initial),
/// then call advance_to() with non-decreasing times.  The chain is
/// uniformised once, at construction; every step multiplies by that P.
class TransientEvolver {
public:
    TransientEvolver(const Ctmc& chain, std::span<const double> initial,
                     TransientOptions options = {});
    /// Evolves over an already uniformised chain (e.g. ctmc::uniformise with
    /// an absorbing mask).
    TransientEvolver(linalg::UniformisedMatrix p, std::span<const double> initial,
                     TransientOptions options = {});
    ~TransientEvolver();
    TransientEvolver(const TransientEvolver&) = delete;
    TransientEvolver& operator=(const TransientEvolver&) = delete;

    /// Tolerance under which a slightly-earlier `t` counts as a duplicate of
    /// the current grid point rather than a backwards move.
    static constexpr double kTimeTolerance = 1e-12;

    /// Advances the internal distribution to absolute time `t`.  Duplicate
    /// grid points — `t` within kTimeTolerance below the current time — are
    /// a no-op (the time never moves backwards); a `t` earlier than that
    /// throws InvalidArgument.
    void advance_to(double t);

    [[nodiscard]] const std::vector<double>& distribution() const noexcept { return dist_; }
    [[nodiscard]] double time() const noexcept { return time_; }

private:
    linalg::UniformisedMatrix p_;
    TransientOptions options_;
    std::vector<double> dist_;
    std::vector<double> scratch_a_;  ///< pool-borrowed when options_.workspace
    std::vector<double> scratch_b_;
    double time_ = 0.0;

    void step(double dt);
};

}  // namespace arcade::ctmc

#endif  // ARCADE_CTMC_TRANSIENT_HPP
