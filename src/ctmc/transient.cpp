#include "ctmc/transient.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/kernels.hpp"
#include "numeric/fox_glynn.hpp"
#include "support/errors.hpp"

namespace arcade::ctmc {

TransientEvolver::TransientEvolver(const Ctmc& chain, std::span<const double> initial,
                                   TransientOptions options)
    : TransientEvolver(uniformise(chain), initial, options) {}

TransientEvolver::TransientEvolver(linalg::UniformisedMatrix p,
                                   std::span<const double> initial, TransientOptions options)
    : p_(std::move(p)), options_(options), dist_(initial.begin(), initial.end()) {
    const std::size_t n = p_.rows();
    ARCADE_ASSERT(initial.size() == n, "initial size mismatch");
    if (options_.workspace != nullptr) {
        scratch_a_ = options_.workspace->acquire(n);
        scratch_b_ = options_.workspace->acquire(n);
    } else {
        scratch_a_.assign(n, 0.0);
        scratch_b_.assign(n, 0.0);
    }
}

TransientEvolver::~TransientEvolver() {
    if (options_.workspace != nullptr) {
        options_.workspace->release(std::move(scratch_a_));
        options_.workspace->release(std::move(scratch_b_));
    }
}

void TransientEvolver::step(double dt) {
    if (dt <= 0.0) return;
    const double q = p_.lambda * dt;
    // Every evolver stepping the same grid over the same chain asks for the
    // same (q, epsilon): share the weights through the process-wide cache.
    const auto weights = numeric::fox_glynn_cached(q, options_.epsilon);

    // result = sum_k w_k * dist * P^k
    std::vector<double>& acc = scratch_a_;
    std::vector<double>& cur = scratch_b_;
    std::fill(acc.begin(), acc.end(), 0.0);
    cur = dist_;

    // k = 0 .. right
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

void TransientEvolver::advance_to(double t) {
    if (t < time_) {
        // Duplicate grid points (within tolerance) clamp to the current
        // time — the distribution is already there and time never moves
        // backwards.  Genuinely decreasing times are a caller error.
        if (t < time_ - kTimeTolerance) {
            throw InvalidArgument("TransientEvolver::advance_to: t=" + std::to_string(t) +
                                  " is before the current time " + std::to_string(time_) +
                                  "; grid times must be non-decreasing");
        }
        return;
    }
    const double dt = t - time_;
    if (dt > 0.0) step(dt);
    time_ = t;
}

std::vector<double> transient_distribution(const Ctmc& chain, std::span<const double> initial,
                                           double t, const TransientOptions& options) {
    ARCADE_ASSERT(t >= 0.0, "negative time");
    TransientEvolver evolver(chain, initial, options);
    evolver.advance_to(t);
    return evolver.distribution();
}

std::vector<std::vector<double>> transient_series(const Ctmc& chain,
                                                  std::span<const double> initial,
                                                  std::span<const double> times,
                                                  const TransientOptions& options) {
    TransientEvolver evolver(chain, initial, options);
    std::vector<std::vector<double>> out;
    out.reserve(times.size());
    for (double t : times) {
        evolver.advance_to(t);
        out.push_back(evolver.distribution());
    }
    return out;
}

}  // namespace arcade::ctmc
