// Test-local stepwise transient engine: the segment-wise reference for
// ctmc::functional_series.  A TransientEvolver uniformises the chain once
// and steps its whole distribution from grid point to grid point, each step
// a Fox–Glynn sum of its own, where the production pass reads every grid
// point off one power sequence.  The tests compare the two.
#ifndef ARCADE_TESTS_TRANSIENT_REFERENCE_HPP
#define ARCADE_TESTS_TRANSIENT_REFERENCE_HPP

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"
#include "linalg/kernels.hpp"
#include "numeric/fox_glynn.hpp"
#include "support/errors.hpp"

namespace arcade::testing {

/// Incremental uniformisation engine.  Construct once per (chain, initial),
/// then call advance_to() with non-decreasing times.  The chain is
/// uniformised once, at construction; every step multiplies by that P.
class TransientEvolver {
public:
    TransientEvolver(const ctmc::Ctmc& chain, std::span<const double> initial,
                     ctmc::TransientOptions options = {})
        : p_(ctmc::uniformise(chain)),
          options_(options),
          dist_(initial.begin(), initial.end()),
          scratch_a_(p_.rows()),
          scratch_b_(p_.rows()) {
        ARCADE_ASSERT(initial.size() == p_.rows(), "initial size mismatch");
    }
    TransientEvolver(const TransientEvolver&) = delete;
    TransientEvolver& operator=(const TransientEvolver&) = delete;

    /// Advances the internal distribution to absolute time `t`.  Duplicate
    /// grid points — `t` within SeriesGrid::kTimeTolerance below the current
    /// time — are a no-op (the time never moves backwards); a `t` earlier
    /// than that throws InvalidArgument.
    void advance_to(double t) {
        if (t < time_) {
            if (t < time_ - ctmc::SeriesGrid::kTimeTolerance) {
                throw InvalidArgument("TransientEvolver::advance_to: t=" + std::to_string(t) +
                                      " is before the current time " +
                                      std::to_string(time_) +
                                      "; grid times must be non-decreasing");
            }
            return;
        }
        const double dt = t - time_;
        if (dt > 0.0) step(dt);
        time_ = t;
    }

    [[nodiscard]] const std::vector<double>& distribution() const noexcept { return dist_; }
    [[nodiscard]] double time() const noexcept { return time_; }

private:
    linalg::UniformisedMatrix p_;
    ctmc::TransientOptions options_;
    std::vector<double> dist_;
    std::vector<double> scratch_a_;
    std::vector<double> scratch_b_;
    double time_ = 0.0;

    /// dist_ <- sum_k w_k * dist_ * P^k over the Fox–Glynn window of
    /// lambda * dt.
    void step(double dt) {
        const auto weights = numeric::fox_glynn_cached(p_.lambda * dt, options_.epsilon);
        std::vector<double>& acc = scratch_a_;
        std::vector<double>& cur = scratch_b_;
        std::fill(acc.begin(), acc.end(), 0.0);
        cur = dist_;
        for (std::size_t k = 0;; ++k) {
            const double w = weights->weight(k);
            if (w != 0.0) {
                for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += w * cur[i];
            }
            if (k == weights->right) break;
            // cur = cur * P; reuse dist_ as the step target then swap.
            linalg::uniformised_multiply_left(p_, cur, dist_);
            std::swap(cur, dist_);
        }
        dist_ = acc;
    }
};

/// Distribution over states at time `t`, starting from `initial`.
inline std::vector<double> transient_distribution(const ctmc::Ctmc& chain,
                                                  std::span<const double> initial, double t,
                                                  const ctmc::TransientOptions& options = {}) {
    ARCADE_ASSERT(t >= 0.0, "negative time");
    TransientEvolver evolver(chain, initial, options);
    evolver.advance_to(t);
    return evolver.distribution();
}

/// Distribution at each time of the non-decreasing grid `times`, one
/// evolver stepped from point to point.
inline std::vector<std::vector<double>> transient_series(
    const ctmc::Ctmc& chain, std::span<const double> initial, std::span<const double> times,
    const ctmc::TransientOptions& options = {}) {
    TransientEvolver evolver(chain, initial, options);
    std::vector<std::vector<double>> out;
    out.reserve(times.size());
    for (const double t : times) {
        evolver.advance_to(t);
        out.push_back(evolver.distribution());
    }
    return out;
}

}  // namespace arcade::testing

#endif  // ARCADE_TESTS_TRANSIENT_REFERENCE_HPP
