#include "rewards/rewards.hpp"

#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "linalg/vector_ops.hpp"
#include "support/errors.hpp"

namespace arcade::rewards {

RewardStructure::RewardStructure(std::string name, std::vector<double> state_rates)
    : name_(std::move(name)), rates_(std::move(state_rates)) {}

std::vector<std::vector<double>> reward_series(const ctmc::Ctmc& chain,
                                               std::span<const double> initial,
                                               const RewardStructure& reward,
                                               std::span<const ctmc::SeriesRequest> requests,
                                               const ctmc::TransientOptions& options) {
    ARCADE_ASSERT(reward.state_count() == chain.state_count(),
                  "reward structure size mismatch");
    ARCADE_ASSERT(initial.size() == chain.state_count(), "initial size mismatch");
    const std::vector<double>& rho = reward.state_rates();
    return ctmc::functional_series(
        ctmc::uniformise(chain), initial, requests,
        [&rho](std::span<const double> dist) { return linalg::dot(dist, rho); }, options);
}

namespace {

/// The one-request reward_series.
std::vector<double> single_series(const ctmc::Ctmc& chain, std::span<const double> initial,
                                  const RewardStructure& reward, std::span<const double> times,
                                  ctmc::SeriesForm form, const ctmc::TransientOptions& options) {
    const ctmc::SeriesRequest request{times, form};
    return std::move(
        reward_series(chain, initial, reward, std::span(&request, 1), options).front());
}

}  // namespace

double instantaneous_reward(const ctmc::Ctmc& chain, std::span<const double> initial,
                            const RewardStructure& reward, double t,
                            const ctmc::TransientOptions& options) {
    ARCADE_ASSERT(t >= 0.0, "negative time");
    return instantaneous_reward_series(chain, initial, reward, std::span<const double>(&t, 1),
                                       options)
        .front();
}

std::vector<double> instantaneous_reward_series(const ctmc::Ctmc& chain,
                                                std::span<const double> initial,
                                                const RewardStructure& reward,
                                                std::span<const double> times,
                                                const ctmc::TransientOptions& options) {
    return single_series(chain, initial, reward, times, ctmc::SeriesForm::Instantaneous,
                         options);
}

double accumulated_reward(const ctmc::Ctmc& chain, std::span<const double> initial,
                          const RewardStructure& reward, double t,
                          const ctmc::TransientOptions& options) {
    ARCADE_ASSERT(t >= 0.0, "negative time bound");
    return accumulated_reward_series(chain, initial, reward, std::span<const double>(&t, 1),
                                     options)
        .front();
}

std::vector<double> accumulated_reward_series(const ctmc::Ctmc& chain,
                                              std::span<const double> initial,
                                              const RewardStructure& reward,
                                              std::span<const double> times,
                                              const ctmc::TransientOptions& options) {
    return single_series(chain, initial, reward, times, ctmc::SeriesForm::Accumulated,
                         options);
}

double steady_state_reward(const ctmc::Ctmc& chain, const RewardStructure& reward) {
    ARCADE_ASSERT(reward.state_count() == chain.state_count(), "reward size mismatch");
    const auto pi = ctmc::steady_state(chain);
    return linalg::dot(pi, reward.state_rates());
}

}  // namespace arcade::rewards
