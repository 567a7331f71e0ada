#include "rewards/rewards.hpp"

#include <algorithm>
#include <cmath>

#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "engine/workspace.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "numeric/fox_glynn.hpp"
#include "support/errors.hpp"

namespace arcade::rewards {

RewardStructure::RewardStructure(std::string name, std::vector<double> state_rates)
    : name_(std::move(name)), rates_(std::move(state_rates)) {}

namespace {

void check(const ctmc::Ctmc& chain, const RewardStructure& reward,
           std::span<const double> initial) {
    ARCADE_ASSERT(reward.state_count() == chain.state_count(),
                  "reward structure size mismatch");
    ARCADE_ASSERT(initial.size() == chain.state_count(), "initial size mismatch");
}

/// E over one interval of length dt starting from distribution `dist`:
///   (1/L) sum_k (1 - F_k(L dt)) * (dist P^k) · rho
/// with L = p.lambda.  Also advances `dist` to the end of the interval
/// (re-using the powers).
double accumulate_interval(const linalg::UniformisedMatrix& p, std::vector<double>& dist,
                           const std::vector<double>& rho, double dt,
                           const ctmc::TransientOptions& options) {
    if (dt <= 0.0) return 0.0;
    const double q = p.lambda * dt;
    const auto weights = numeric::fox_glynn_cached(q, options.epsilon);

    // Survival function of the Poisson: S_k = P(N > k) = 1 - F_k.
    // Computed from the normalised weights; mass below `left` counts as
    // already included in F (indices < left have negligible pmf).
    const std::size_t n = p.rows();
    engine::ScratchVector cur_scratch(options.workspace, n);
    engine::ScratchVector next_scratch(options.workspace, n);
    engine::ScratchVector end_scratch(options.workspace, n);
    std::vector<double>& cur = cur_scratch.get();
    std::vector<double>& next = next_scratch.get();
    std::vector<double>& end_dist = end_scratch.get();
    cur = dist;
    std::fill(end_dist.begin(), end_dist.end(), 0.0);

    double cdf = 0.0;
    double total = 0.0;
    for (std::size_t k = 0;; ++k) {
        const double w = weights->weight(k);
        cdf += w;
        const double survival = std::max(0.0, 1.0 - cdf);
        // reward contribution of P^k term
        if (survival > 0.0) {
            total += survival * linalg::dot(cur, rho);
        }
        if (w != 0.0) {
            for (std::size_t i = 0; i < n; ++i) end_dist[i] += w * cur[i];
        }
        if (k == weights->right) break;
        linalg::uniformised_multiply_left(p, cur, next);
        std::swap(cur, next);
    }
    // Indices k < left all have survival 1 and are skipped by weight(k)==0 in
    // the loop only for the *pmf*; the survival term must still be counted.
    // The loop above runs k from 0 so all survival terms are included.
    dist = end_dist;
    return total / p.lambda;
}

}  // namespace

double instantaneous_reward(const ctmc::Ctmc& chain, std::span<const double> initial,
                            const RewardStructure& reward, double t,
                            const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    const auto dist = ctmc::transient_distribution(chain, initial, t, options);
    return linalg::dot(dist, reward.state_rates());
}

std::vector<double> instantaneous_reward_series(const ctmc::Ctmc& chain,
                                                std::span<const double> initial,
                                                const RewardStructure& reward,
                                                std::span<const double> times,
                                                const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    ctmc::TransientEvolver evolver(chain, initial, options);
    std::vector<double> out;
    out.reserve(times.size());
    for (double t : times) {
        evolver.advance_to(t);
        out.push_back(linalg::dot(evolver.distribution(), reward.state_rates()));
    }
    return out;
}

double accumulated_reward(const ctmc::Ctmc& chain, std::span<const double> initial,
                          const RewardStructure& reward, double t,
                          const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    ARCADE_ASSERT(t >= 0.0, "negative time bound");
    std::vector<double> dist(initial.begin(), initial.end());
    return accumulate_interval(ctmc::uniformise(chain), dist, reward.state_rates(), t,
                               options);
}

std::vector<double> accumulated_reward_series(const ctmc::Ctmc& chain,
                                              std::span<const double> initial,
                                              const RewardStructure& reward,
                                              std::span<const double> times,
                                              const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    const linalg::UniformisedMatrix p = ctmc::uniformise(chain);
    std::vector<double> dist(initial.begin(), initial.end());
    std::vector<double> out;
    out.reserve(times.size());
    double acc = 0.0;
    double prev = 0.0;
    for (double t : times) {
        // Mirror TransientEvolver::advance_to: a grid point within tolerance
        // below the previous one is a duplicate (zero-length interval), an
        // earlier one is a caller error.  The raw `t - prev` of a duplicate
        // can be negative and must never reach accumulate_interval.
        if (t < prev - ctmc::TransientEvolver::kTimeTolerance) {
            throw InvalidArgument("accumulated_reward_series: t=" + std::to_string(t) +
                                  " is before the previous grid point " +
                                  std::to_string(prev) +
                                  "; grid times must be non-decreasing");
        }
        const double dt = std::max(0.0, t - prev);
        acc += accumulate_interval(p, dist, reward.state_rates(), dt, options);
        out.push_back(acc);
        prev = std::max(prev, t);
    }
    return out;
}

double steady_state_reward(const ctmc::Ctmc& chain, const RewardStructure& reward) {
    ARCADE_ASSERT(reward.state_count() == chain.state_count(), "reward size mismatch");
    const auto pi = ctmc::steady_state(chain);
    return linalg::dot(pi, reward.state_rates());
}

}  // namespace arcade::rewards
