#include "arcade/types.hpp"

#include <cmath>
#include <set>
#include <tuple>

#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::core {

std::string to_string(RepairPolicy policy) {
    switch (policy) {
        case RepairPolicy::None: return "none";
        case RepairPolicy::Dedicated: return "dedicated";
        case RepairPolicy::FirstComeFirstServe: return "fcfs";
        case RepairPolicy::FastestRepairFirst: return "frf";
        case RepairPolicy::FastestFailureFirst: return "fff";
        case RepairPolicy::Priority: return "priority";
    }
    return "unknown";
}

RepairPolicy repair_policy_from_string(const std::string& text) {
    if (text == "none") return RepairPolicy::None;
    if (text == "dedicated" || text == "ded") return RepairPolicy::Dedicated;
    if (text == "fcfs") return RepairPolicy::FirstComeFirstServe;
    if (text == "frf" || text == "fastest-repair-first") return RepairPolicy::FastestRepairFirst;
    if (text == "fff" || text == "fastest-failure-first") return RepairPolicy::FastestFailureFirst;
    if (text == "priority") return RepairPolicy::Priority;
    throw InvalidArgument("unknown repair policy '" + text + "'");
}

void ArcadeModel::validate() const {
    if (components.empty()) throw ModelError("model '" + name + "' has no components");
    for (const auto& c : components) {
        if (!(c.mttf > 0.0) || !(c.mttr > 0.0)) {
            throw ModelError("component '" + c.name + "' needs positive MTTF and MTTR");
        }
        // An infinite mean gives rate 0, a subnormal one an infinite rate.
        for (const auto& [what, mean, rate] : {std::tuple{"MTTF", c.mttf, c.failure_rate()},
                                               std::tuple{"MTTR", c.mttr, c.repair_rate()}}) {
            if (!(rate > 0.0) || !std::isfinite(rate)) {
                throw ModelError("component '" + c.name + "' has " + what + " " +
                                 format_g17(mean) + ", whose rate " + format_g17(rate) +
                                 " is not positive and finite");
            }
        }
    }
    std::set<std::string> names;
    for (const auto& c : components) {
        if (!names.insert(c.name).second) {
            throw ModelError("duplicate component name '" + c.name + "'");
        }
    }

    std::vector<bool> covered(components.size(), false);
    for (const auto& ru : repair_units) {
        if (ru.components.empty()) {
            throw ModelError("repair unit '" + ru.name + "' covers no components");
        }
        if (ru.policy != RepairPolicy::None && ru.crews == 0) {
            throw ModelError("repair unit '" + ru.name + "' needs at least one crew");
        }
        for (std::size_t idx : ru.components) {
            if (idx >= components.size()) {
                throw ModelError("repair unit '" + ru.name + "' references component #" +
                                 std::to_string(idx) + " which does not exist");
            }
            if (covered[idx]) {
                throw ModelError("component '" + components[idx].name +
                                 "' is covered by two repair units");
            }
            covered[idx] = true;
        }
        if (ru.policy == RepairPolicy::Priority &&
            ru.priorities.size() != ru.components.size()) {
            throw ModelError("repair unit '" + ru.name +
                             "' needs one priority per component");
        }
    }

    for (const auto& smu : spare_units) {
        if (smu.required == 0 || smu.required > smu.components.size()) {
            throw ModelError("spare unit '" + smu.name + "' has invalid required count");
        }
        for (std::size_t idx : smu.components) {
            if (idx >= components.size()) {
                throw ModelError("spare unit '" + smu.name + "' references missing component");
            }
        }
    }

    if (phases.empty()) throw ModelError("model '" + name + "' has no service phases");
    std::vector<bool> in_phase(components.size(), false);
    for (const auto& phase : phases) {
        if (phase.components.empty()) {
            throw ModelError("phase '" + phase.name + "' has no components");
        }
        if (phase.required == 0 || phase.required > phase.components.size()) {
            throw ModelError("phase '" + phase.name + "' has invalid required count");
        }
        for (std::size_t idx : phase.components) {
            if (idx >= components.size()) {
                throw ModelError("phase '" + phase.name + "' references missing component");
            }
            if (in_phase[idx]) {
                throw ModelError("component '" + components[idx].name +
                                 "' appears in two phases");
            }
            in_phase[idx] = true;
        }
    }
}

std::size_t ArcadeModel::component_index(const std::string& component_name) const {
    for (std::size_t i = 0; i < components.size(); ++i) {
        if (components[i].name == component_name) return i;
    }
    throw ModelError("unknown component '" + component_name + "'");
}

ModelBuilder::ModelBuilder(std::string name) { model_.name = std::move(name); }

std::vector<std::size_t> ModelBuilder::add_redundant_phase(const std::string& name,
                                                           std::size_t count, double mttf,
                                                           double mttr) {
    ARCADE_ASSERT(count > 0, "phase needs at least one component");
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < count; ++i) {
        BasicComponent c;
        c.name = count == 1 ? name : name + std::to_string(i + 1);
        c.mttf = mttf;
        c.mttr = mttr;
        indices.push_back(model_.components.size());
        model_.components.push_back(std::move(c));
    }
    ServicePhase phase;
    phase.name = name;
    phase.components = indices;
    phase.required = count;
    phase.spare_managed = false;
    model_.phases.push_back(std::move(phase));
    return indices;
}

std::vector<std::size_t> ModelBuilder::add_spare_phase(const std::string& name,
                                                       std::size_t total, std::size_t required,
                                                       double mttf, double mttr) {
    ARCADE_ASSERT(required > 0 && required <= total, "invalid spare phase arity");
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < total; ++i) {
        BasicComponent c;
        c.name = name + std::to_string(i + 1);
        c.mttf = mttf;
        c.mttr = mttr;
        indices.push_back(model_.components.size());
        model_.components.push_back(std::move(c));
    }
    SpareManagementUnit smu;
    smu.name = name + "_smu";
    smu.components = indices;
    smu.required = required;
    model_.spare_units.push_back(smu);

    ServicePhase phase;
    phase.name = name;
    phase.components = indices;
    phase.required = required;
    phase.spare_managed = true;
    model_.phases.push_back(std::move(phase));
    return indices;
}

ModelBuilder& ModelBuilder::with_repair(RepairPolicy policy, std::size_t crews,
                                        bool preemptive) {
    std::vector<bool> covered(model_.components.size(), false);
    for (const auto& ru : model_.repair_units) {
        for (std::size_t idx : ru.components) covered[idx] = true;
    }
    RepairUnit unit;
    unit.name = "ru" + std::to_string(model_.repair_units.size() + 1);
    unit.policy = policy;
    unit.crews = crews;
    unit.preemptive = preemptive;
    for (std::size_t i = 0; i < model_.components.size(); ++i) {
        if (!covered[i]) unit.components.push_back(i);
    }
    model_.repair_units.push_back(std::move(unit));
    return *this;
}

ModelBuilder& ModelBuilder::with_repair_unit(RepairUnit unit) {
    model_.repair_units.push_back(std::move(unit));
    return *this;
}

ModelBuilder& ModelBuilder::with_failed_cost_rate(double rate) {
    for (auto& c : model_.components) c.failed_cost_rate = rate;
    return *this;
}

ArcadeModel ModelBuilder::build() const {
    model_.validate();
    return model_;
}

}  // namespace arcade::core
