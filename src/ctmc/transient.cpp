#include "ctmc/transient.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/kernels.hpp"
#include "support/errors.hpp"

namespace arcade::ctmc {

TransientEvolver::TransientEvolver(const Ctmc& chain, std::span<const double> initial,
                                   TransientOptions options)
    : p_(uniformise(chain)),
      options_(options),
      dist_(initial.begin(), initial.end()),
      scratch_a_(p_.rows()),
      scratch_b_(p_.rows()) {
    ARCADE_ASSERT(initial.size() == p_.rows(), "initial size mismatch");
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

SeriesGrid::SeriesGrid(double lambda, std::span<const double> times, double epsilon)
    : lambda_(lambda) {
    windows_.reserve(times.size());
    double prev = 0.0;
    for (const double t : times) {
        if (t < prev - TransientEvolver::kTimeTolerance) {
            throw InvalidArgument("time grid: t=" + std::to_string(t) +
                                  " is before the previous grid point " +
                                  std::to_string(prev) +
                                  "; grid times must be non-decreasing");
        }
        if (!windows_.empty() && t <= prev) {
            windows_.push_back(windows_.back());  // duplicate: clamp to prev
            continue;
        }
        prev = std::max(prev, t);
        windows_.push_back(numeric::fox_glynn_cached(lambda * prev, epsilon));
        steps_ = std::max(steps_, windows_.back()->right);
    }
}

std::vector<double> SeriesGrid::combine(std::span<const double> s, SeriesForm form) const {
    ARCADE_ASSERT(s.size() > steps_, "SeriesGrid::combine: power sequence too short");
    std::vector<double> out;
    out.reserve(windows_.size());
    for (const auto& w : windows_) {
        double total = 0.0;
        if (form == SeriesForm::Instantaneous) {
            for (std::size_t k = w->left; k <= w->right; ++k) total += w->weight(k) * s[k];
            out.push_back(total);
            continue;
        }
        // Survival function of the Poisson, S_k = P(N > k) = 1 - F_k, from
        // the normalised weights: every k below the window has S_k = 1.
        double cdf = 0.0;
        for (std::size_t k = 0; k <= w->right; ++k) {
            cdf += w->weight(k);
            const double survival = std::max(0.0, 1.0 - cdf);
            if (survival > 0.0) total += survival * s[k];
        }
        out.push_back(total / lambda_);
    }
    return out;
}

std::vector<std::vector<double>> functional_series(const linalg::UniformisedMatrix& p,
                                                   std::span<const double> initial,
                                                   std::span<const SeriesRequest> requests,
                                                   const DistributionFunctional& f,
                                                   const TransientOptions& options) {
    const std::size_t n = p.rows();
    ARCADE_ASSERT(initial.size() == n, "initial size mismatch");
    std::vector<SeriesGrid> grids;
    grids.reserve(requests.size());
    std::size_t steps = 0;
    for (const SeriesRequest& request : requests) {
        grids.emplace_back(p.lambda, request.times, options.epsilon);
        steps = std::max(steps, grids.back().steps());
    }

    std::vector<double> cur(initial.begin(), initial.end());
    std::vector<double> next(n);

    std::vector<double> s;
    s.reserve(steps + 1);
    for (std::size_t k = 0;; ++k) {
        s.push_back(f(cur));
        if (k == steps) break;
        linalg::uniformised_multiply_left(p, cur, next);
        std::swap(cur, next);
    }
    std::vector<std::vector<double>> out;
    out.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        out.push_back(grids[i].combine(s, requests[i].form));
    }
    return out;
}

std::vector<double> functional_series(const linalg::UniformisedMatrix& p,
                                      std::span<const double> initial,
                                      std::span<const double> times, SeriesForm form,
                                      const DistributionFunctional& f,
                                      const TransientOptions& options) {
    const SeriesRequest request{times, form};
    return std::move(functional_series(p, initial, std::span(&request, 1), f, options).front());
}

}  // namespace arcade::ctmc
