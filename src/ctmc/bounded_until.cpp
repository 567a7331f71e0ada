#include "ctmc/bounded_until.hpp"

#include <algorithm>

#include "linalg/kernels.hpp"
#include "numeric/fox_glynn.hpp"
#include "support/errors.hpp"

namespace arcade::ctmc {

namespace {

/// The states until_transform makes absorbing: those in Psi or in neither
/// Phi nor Psi.
std::vector<bool> until_absorbing(const Ctmc& chain, const std::vector<bool>& phi,
                                  const std::vector<bool>& psi) {
    const std::size_t n = chain.state_count();
    ARCADE_ASSERT(phi.size() == n && psi.size() == n, "mask size mismatch");
    std::vector<bool> absorbing(n, false);
    for (std::size_t s = 0; s < n; ++s) {
        absorbing[s] = psi[s] || (!phi[s] && !psi[s]);
    }
    return absorbing;
}

}  // namespace

Ctmc until_transform(const Ctmc& chain, const std::vector<bool>& phi,
                     const std::vector<bool>& psi) {
    return chain.make_absorbing(until_absorbing(chain, phi, psi));
}

double mass_in(std::span<const double> dist, const std::vector<bool>& set) {
    double p = 0.0;
    for (std::size_t s = 0; s < dist.size(); ++s) {
        if (set[s]) p += dist[s];
    }
    return p;
}

double bounded_until_probability(const Ctmc& chain, std::span<const double> initial,
                                 const std::vector<bool>& phi, const std::vector<bool>& psi,
                                 double t, const TransientOptions& options) {
    ARCADE_ASSERT(t >= 0.0, "negative time");
    return bounded_until_series(chain, initial, phi, psi, std::span<const double>(&t, 1),
                                options)
        .front();
}

std::vector<double> bounded_until_series(const Ctmc& chain, std::span<const double> initial,
                                         const std::vector<bool>& phi,
                                         const std::vector<bool>& psi,
                                         std::span<const double> times,
                                         const TransientOptions& options) {
    const std::vector<bool> absorbing = until_absorbing(chain, phi, psi);
    // The Psi states in ascending order, listed once per solve: summing
    // dist over them is mass_in(dist, psi) — the same additions in the same
    // order — without testing every state's bit after every step.
    std::vector<std::size_t> members;
    for (std::size_t s = 0; s < psi.size(); ++s) {
        if (psi[s]) members.push_back(s);
    }
    return functional_series(
        uniformise(chain, &absorbing), initial, times, SeriesForm::Instantaneous,
        [&members](std::span<const double> dist) {
            double p = 0.0;
            for (const std::size_t s : members) p += dist[s];
            return p;
        },
        options);
}

std::vector<double> bounded_until_all_states(const Ctmc& chain, const std::vector<bool>& phi,
                                             const std::vector<bool>& psi, double t,
                                             const TransientOptions& options) {
    const std::vector<bool> absorbing = until_absorbing(chain, phi, psi);
    const std::size_t n = chain.state_count();

    std::vector<double> cur(n, 0.0);
    for (std::size_t s = 0; s < n; ++s) cur[s] = psi[s] ? 1.0 : 0.0;

    // A zero-rate transformed chain (every phi-state already absorbing) never
    // moves: v(t) is exactly the psi indicator, no uniformisation needed.
    if (chain.max_exit_rate(absorbing) == 0.0) return cur;

    // Backward recurrence: v(t) = sum_k pois_k(q t) * P^k * 1_psi.
    const linalg::UniformisedMatrix p = uniformise(chain, &absorbing);
    const auto weights = numeric::fox_glynn_cached(p.lambda * t, options.epsilon);

    std::vector<double> acc(n, 0.0);
    std::vector<double> next(n);

    // next = P * cur  (column-vector form of the uniformised matrix)
    const auto power_step = [&] {
        linalg::uniformised_multiply_right(p, cur, next);
        std::swap(cur, next);
    };

    // Below the Fox–Glynn window every weight is zero: advance cur to
    // P^left * 1_psi with bare power iterations, no accumulation pass.
    for (std::size_t k = 0; k < weights->left; ++k) power_step();
    for (std::size_t k = weights->left;; ++k) {
        const double w = weights->weight(k);
        for (std::size_t i = 0; i < n; ++i) acc[i] += w * cur[i];
        if (k == weights->right) break;
        power_step();
    }
    return acc;
}

}  // namespace arcade::ctmc
