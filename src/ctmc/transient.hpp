// Transient analysis of CTMCs by uniformisation with Fox–Glynn weights.
//
// Every curve the paper plots is a scalar functional of the transient
// distribution: mass in a set (survivability, reliability) or a dot product
// with reward rates (instantaneous and accumulated cost).  functional_series
// evaluates such a curve from ONE power sequence s_k = f(initial · P^k),
// k = 0 … K, where K is the right Fox–Glynn point of the grid's last time;
// each grid point then weights that sequence with its own Poisson window.
// A 101-point curve costs K + 1 sparse matrix-vector products — the same
// as a single solve at its last time point.
//
// TransientEvolver and transient_distribution/transient_series return whole
// distributions and step from grid point to grid point.
#ifndef ARCADE_CTMC_TRANSIENT_HPP
#define ARCADE_CTMC_TRANSIENT_HPP

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "numeric/fox_glynn.hpp"

namespace arcade::ctmc {

struct TransientOptions {
    double epsilon = 1e-12;  ///< Fox–Glynn truncation error per grid point
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
    std::vector<double> scratch_a_;
    std::vector<double> scratch_b_;
    double time_ = 0.0;

    void step(double dt);
};

/// How a grid value is formed from the power sequence s_k = f(initial · P^k).
enum class SeriesForm {
    Instantaneous,  ///< f(π_t) = Σ_k pois(k; λt) · s_k
    Accumulated,    ///< ∫_0^t f(π_u) du = (1/λ) Σ_k P(N_λt > k) · s_k
};

/// The Fox–Glynn window of every point of a time grid at uniformisation rate
/// `lambda`, with TransientEvolver's grid semantics: a point within
/// kTimeTolerance below its predecessor is a duplicate and clamps to it (the
/// same window, hence the same value); an earlier one throws
/// InvalidArgument.  t = 0 has the window {1} at k = 0, so its instantaneous
/// value is s_0 = f(initial) and its accumulated value 0.
class SeriesGrid {
public:
    SeriesGrid(double lambda, std::span<const double> times, double epsilon);

    /// K: the highest power any grid point reads, so s_0 … s_K are needed.
    [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

    /// The grid values from s_0 … s_K.  Each point depends only on its own
    /// window and s, never on the other points of the grid.
    [[nodiscard]] std::vector<double> combine(std::span<const double> s,
                                              SeriesForm form) const;

private:
    double lambda_;
    std::vector<std::shared_ptr<const numeric::PoissonWeights>> windows_;
    std::size_t steps_ = 0;
};

/// A scalar functional of a distribution (mass in a set, reward dot product).
using DistributionFunctional = std::function<double(std::span<const double>)>;

/// One curve to read off a power sequence: a non-decreasing time grid and
/// the form its values take.
struct SeriesRequest {
    std::span<const double> times;
    SeriesForm form = SeriesForm::Instantaneous;
};

/// Every request's curve from ONE pass of s_k = f(initial · P^k), stepped
/// up to the largest right window point over all the requests' grids.  Each
/// request gets its own SeriesGrid (so a decreasing grid in any request
/// throws InvalidArgument before any step), and result i is bitwise the
/// single-request functional_series of request i: a grid point reads only
/// s_0 … s_right of its own window, whatever the other requests need.
[[nodiscard]] std::vector<std::vector<double>> functional_series(
    const linalg::UniformisedMatrix& p, std::span<const double> initial,
    std::span<const SeriesRequest> requests, const DistributionFunctional& f,
    const TransientOptions& options = {});

/// f(π_t) (or ∫_0^t f(π_u) du) at every point of the non-decreasing grid
/// `times`: the one-request pass above.  A one-point grid {t} gives bitwise
/// the value the same point has on any longer grid.
[[nodiscard]] std::vector<double> functional_series(const linalg::UniformisedMatrix& p,
                                                    std::span<const double> initial,
                                                    std::span<const double> times,
                                                    SeriesForm form,
                                                    const DistributionFunctional& f,
                                                    const TransientOptions& options = {});

}  // namespace arcade::ctmc

#endif  // ARCADE_CTMC_TRANSIENT_HPP
