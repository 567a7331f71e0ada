#include "arcade/measures.hpp"

#include "arcade/fault_tree.hpp"
#include "ctmc/bounded_until.hpp"
#include "ctmc/steady_state.hpp"
#include "rewards/rewards.hpp"
#include "support/errors.hpp"

namespace arcade::core {

double availability(const CompiledModel& model) {
    return ctmc::steady_state_probability(model.chain(), model.operational_states());
}

double availability(engine::AnalysisSession& session,
                    const engine::AnalysisSession::CompiledPtr& model) {
    return session.availability(model);
}

double combined_availability(double line1, double line2) {
    return line1 + line2 - line1 * line2;
}

ctmc::TransientOptions session_transient(engine::AnalysisSession& /*session*/) {
    return {};
}

std::vector<double> reliability_series(const CompiledModel& model,
                                       std::span<const double> times,
                                       const ctmc::TransientOptions& transient) {
    for (const auto& ru : model.model().repair_units) {
        if (ru.policy != RepairPolicy::None) {
            throw ModelError(
                "reliability must be computed on a repair-free model; "
                "compile without_repair(model) first");
        }
    }
    const ctmc::Ctmc& chain = model.chain();
    const std::vector<bool> phi(chain.state_count(), true);
    const std::vector<bool>& down = chain.label("down");
    const auto p_down = ctmc::bounded_until_series(chain, chain.initial_distribution(),
                                                   phi, down, times, transient);
    std::vector<double> reliability(p_down.size());
    for (std::size_t i = 0; i < p_down.size(); ++i) reliability[i] = 1.0 - p_down[i];
    return reliability;
}

std::vector<double> survivability_series(const CompiledModel& model, const Disaster& disaster,
                                         double service_level, std::span<const double> times,
                                         const ctmc::TransientOptions& transient) {
    const std::vector<bool> phi(model.chain().state_count(), true);
    const std::vector<bool> target = model.service_at_least(service_level);
    const auto initial = model.disaster_distribution(disaster);
    return ctmc::bounded_until_series(model.chain(), initial, phi, target, times, transient);
}

double survivability(const CompiledModel& model, const Disaster& disaster,
                     double service_level, double time) {
    const std::vector<double> times{0.0, time};
    return survivability_series(model, disaster, service_level, times).back();
}

std::vector<std::vector<double>> cost_series(const CompiledModel& model,
                                             const Disaster& disaster,
                                             std::span<const ctmc::SeriesRequest> requests,
                                             const ctmc::TransientOptions& transient) {
    const auto initial = model.disaster_distribution(disaster);
    return rewards::reward_series(model.chain(), initial, model.cost_reward(), requests,
                                  transient);
}

std::vector<double> instantaneous_cost_series(const CompiledModel& model,
                                              const Disaster& disaster,
                                              std::span<const double> times,
                                              const ctmc::TransientOptions& transient) {
    const ctmc::SeriesRequest request{times, ctmc::SeriesForm::Instantaneous};
    return std::move(cost_series(model, disaster, std::span(&request, 1), transient).front());
}

std::vector<double> accumulated_cost_series(const CompiledModel& model,
                                            const Disaster& disaster,
                                            std::span<const double> times,
                                            const ctmc::TransientOptions& transient) {
    const ctmc::SeriesRequest request{times, ctmc::SeriesForm::Accumulated};
    return std::move(cost_series(model, disaster, std::span(&request, 1), transient).front());
}

FusedSeriesPlan survivability_fused_plan(const CompiledModel& model,
                                         double service_level) {
    FusedSeriesPlan plan;
    const std::vector<bool> phi(model.chain().state_count(), true);
    plan.transformed = std::make_shared<const ctmc::Ctmc>(
        ctmc::until_transform(model.chain(), phi, model.service_at_least(service_level)));
    plan.chain = plan.transformed.get();
    return plan;
}

double steady_state_cost(const CompiledModel& model) {
    return rewards::steady_state_reward(model.chain(), model.cost_reward());
}

double steady_state_cost(engine::AnalysisSession& session,
                         const engine::AnalysisSession::CompiledPtr& model) {
    return session.steady_state_cost(model);
}

std::vector<double> service_levels(const ArcadeModel& model) {
    return phase_service_levels(model);
}

}  // namespace arcade::core
