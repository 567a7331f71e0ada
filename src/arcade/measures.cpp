#include "arcade/measures.hpp"

#include "arcade/fault_tree.hpp"
#include "ctmc/bounded_until.hpp"
#include "ctmc/steady_state.hpp"
#include "rewards/rewards.hpp"
#include "support/errors.hpp"

namespace arcade::core {

namespace {

/// The quotient to analyse instead of the full chain, or nullptr when the
/// model was compiled with ReductionPolicy::Off.  Computed lazily once per
/// model and shared (see CompiledModel::quotient).
std::shared_ptr<const ctmc::QuotientCtmc> auto_quotient(const CompiledModel& model) {
    if (model.reduction() != ReductionPolicy::Auto) return nullptr;
    return model.quotient().first;
}

}  // namespace

double availability(const CompiledModel& model) {
    if (const auto q = auto_quotient(model)) {
        return ctmc::steady_state_probability(q->chain(), q->chain().label("operational"));
    }
    return ctmc::steady_state_probability(model.chain(), model.operational_states());
}

double availability(engine::AnalysisSession& session,
                    const engine::AnalysisSession::CompiledPtr& model) {
    return session.availability(model);
}

double combined_availability(double line1, double line2) {
    return line1 + line2 - line1 * line2;
}

ctmc::TransientOptions session_transient(engine::AnalysisSession& session) {
    ctmc::TransientOptions options;
    options.workspace = &session.workspace();
    return options;
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
    // Bounded until commutes with lumping when its masks are
    // block-constant: making psi-blocks absorbing in the quotient equals
    // lumping the transformed chain.  "down" is part of every model's lump
    // signature, so the quotient path is exact.
    // The quotient chain already stores the projected initial distribution.
    const auto q = auto_quotient(model);
    const ctmc::Ctmc& chain = q ? q->chain() : model.chain();
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
    if (const auto q = auto_quotient(model)) {
        // Service levels are in the lump signature, so every service>=x
        // mask is block-constant and the quotient solve is exact.
        const std::vector<bool> phi(q->block_count(), true);
        const auto target = q->project_mask(model.service_at_least(service_level));
        const auto initial = q->project(model.disaster_distribution(disaster));
        return ctmc::bounded_until_series(q->chain(), initial, phi, target, times,
                                          transient);
    }
    const std::vector<bool> phi(model.state_count(), true);
    const std::vector<bool> target = model.service_at_least(service_level);
    const auto initial = model.disaster_distribution(disaster);
    return ctmc::bounded_until_series(model.chain(), initial, phi, target, times, transient);
}

double survivability(const CompiledModel& model, const Disaster& disaster,
                     double service_level, double time) {
    const std::vector<double> times{0.0, time};
    return survivability_series(model, disaster, service_level, times).back();
}

std::vector<double> instantaneous_cost_series(const CompiledModel& model,
                                              const Disaster& disaster,
                                              std::span<const double> times,
                                              const ctmc::TransientOptions& transient) {
    if (const auto q = auto_quotient(model)) {
        const rewards::RewardStructure cost(
            model.cost_reward().name(),
            q->project_values(model.cost_reward().state_rates()));
        const auto initial = q->project(model.disaster_distribution(disaster));
        return rewards::instantaneous_reward_series(q->chain(), initial, cost, times,
                                                    transient);
    }
    const auto initial = model.disaster_distribution(disaster);
    return rewards::instantaneous_reward_series(model.chain(), initial, model.cost_reward(),
                                                times, transient);
}

std::vector<double> accumulated_cost_series(const CompiledModel& model,
                                            const Disaster& disaster,
                                            std::span<const double> times,
                                            const ctmc::TransientOptions& transient) {
    if (const auto q = auto_quotient(model)) {
        const rewards::RewardStructure cost(
            model.cost_reward().name(),
            q->project_values(model.cost_reward().state_rates()));
        const auto initial = q->project(model.disaster_distribution(disaster));
        return rewards::accumulated_reward_series(q->chain(), initial, cost, times,
                                                  transient);
    }
    const auto initial = model.disaster_distribution(disaster);
    return rewards::accumulated_reward_series(model.chain(), initial, model.cost_reward(),
                                              times, transient);
}

FusedSeriesPlan survivability_fused_plan(const CompiledModel& model,
                                         double service_level) {
    FusedSeriesPlan plan;
    plan.quotient = auto_quotient(model);
    const ctmc::Ctmc& base = plan.quotient ? plan.quotient->chain() : model.chain();
    const std::vector<bool> phi(base.state_count(), true);
    const std::vector<bool> target =
        plan.quotient ? plan.quotient->project_mask(model.service_at_least(service_level))
                      : model.service_at_least(service_level);
    plan.transformed =
        std::make_shared<const ctmc::Ctmc>(ctmc::until_transform(base, phi, target));
    plan.chain = plan.transformed.get();
    return plan;
}

double steady_state_cost(const CompiledModel& model) {
    if (const auto q = auto_quotient(model)) {
        const rewards::RewardStructure cost(
            model.cost_reward().name(),
            q->project_values(model.cost_reward().state_rates()));
        return rewards::steady_state_reward(q->chain(), cost);
    }
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
