#include "ctmc/transient.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/kernels.hpp"
#include "support/errors.hpp"

namespace arcade::ctmc {

SeriesGrid::SeriesGrid(double lambda, std::span<const double> times, double epsilon)
    : lambda_(lambda) {
    // One window per distinct grid point, all looked up in one batch.
    std::vector<double> rates;
    std::vector<std::size_t> window_of;  // grid point -> its rate
    rates.reserve(times.size());
    window_of.reserve(times.size());
    double prev = 0.0;
    for (const double t : times) {
        if (t < prev - kTimeTolerance) {
            throw InvalidArgument("time grid: t=" + std::to_string(t) +
                                  " is before the previous grid point " +
                                  std::to_string(prev) +
                                  "; grid times must be non-decreasing");
        }
        // A point at or just before prev reuses prev's window.
        if (rates.empty() || t > prev) {
            prev = std::max(prev, t);
            rates.push_back(lambda * prev);
        }
        window_of.push_back(rates.size() - 1);
    }
    const auto windows = numeric::fox_glynn_cached(rates, epsilon);
    windows_.reserve(times.size());
    for (const std::size_t w : window_of) {
        windows_.push_back(windows[w]);
        steps_ = std::max(steps_, windows[w]->right);
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
