// Markov reward models: state reward rates attached to a CTMC, and the
// CSRL-style measures the paper uses —
//   R=? [I=t]   expected instantaneous reward rate at time t,
//   R=? [C<=t]  expected reward accumulated in [0,t],
//   R=? [S]     long-run average reward rate.
//
// Accumulated rewards use the uniformisation identity
//   E[∫_0^t rho(X_s) ds] = (1/L) * sum_k (1 - F_k(Lt)) * (pi_0 P^k) · rho
// where F_k is the Poisson cdf at rate Lt (Tijms & Veldman / standard
// Markov-reward uniformisation).  Both transient measures are
// ctmc::functional_series passes of (pi_0 P^k) · rho, so a whole grid costs
// one power sequence up to its last time point, and a single-time value is
// the one-point series (bitwise the series value at that time).
#ifndef ARCADE_REWARDS_REWARDS_HPP
#define ARCADE_REWARDS_REWARDS_HPP

#include <span>
#include <string>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"

namespace arcade::rewards {

/// Named state-reward structure (reward gained per unit of time in a state).
class RewardStructure {
public:
    RewardStructure() = default;
    RewardStructure(std::string name, std::vector<double> state_rates);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<double>& state_rates() const noexcept { return rates_; }
    [[nodiscard]] std::size_t state_count() const noexcept { return rates_.size(); }

private:
    std::string name_;
    std::vector<double> rates_;
};

/// E[rho(X_t)] — instantaneous expected reward rate at time t.
[[nodiscard]] double instantaneous_reward(const ctmc::Ctmc& chain,
                                          std::span<const double> initial,
                                          const RewardStructure& reward, double t,
                                          const ctmc::TransientOptions& options = {});

/// Instantaneous reward on a non-decreasing time grid (one uniformisation
/// pass; TransientEvolver's duplicate/decreasing grid semantics).
[[nodiscard]] std::vector<double> instantaneous_reward_series(
    const ctmc::Ctmc& chain, std::span<const double> initial, const RewardStructure& reward,
    std::span<const double> times, const ctmc::TransientOptions& options = {});

/// E[∫_0^t rho(X_s) ds] — expected accumulated reward over [0,t].
[[nodiscard]] double accumulated_reward(const ctmc::Ctmc& chain,
                                        std::span<const double> initial,
                                        const RewardStructure& reward, double t,
                                        const ctmc::TransientOptions& options = {});

/// Accumulated reward on a non-decreasing time grid, every point read off
/// the same power sequence as instantaneous_reward_series.
[[nodiscard]] std::vector<double> accumulated_reward_series(
    const ctmc::Ctmc& chain, std::span<const double> initial, const RewardStructure& reward,
    std::span<const double> times, const ctmc::TransientOptions& options = {});

/// Every request's curve (instantaneous or accumulated, each on its own
/// grid) from ONE ctmc::functional_series pass of (pi_0 P^k) · rho; result i
/// is bitwise the one-request series of request i.
[[nodiscard]] std::vector<std::vector<double>> reward_series(
    const ctmc::Ctmc& chain, std::span<const double> initial, const RewardStructure& reward,
    std::span<const ctmc::SeriesRequest> requests, const ctmc::TransientOptions& options = {});

/// Long-run average reward rate (steady-state weighted reward).
[[nodiscard]] double steady_state_reward(const ctmc::Ctmc& chain,
                                         const RewardStructure& reward);

}  // namespace arcade::rewards

#endif  // ARCADE_REWARDS_REWARDS_HPP
