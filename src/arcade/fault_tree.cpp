#include "arcade/fault_tree.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/errors.hpp"

namespace arcade::core {

FaultTree FaultTree::literal(std::size_t component) {
    FaultTree t;
    t.gate_ = Gate::Literal;
    t.component_ = component;
    return t;
}

FaultTree FaultTree::all_of(std::vector<FaultTree> children) {
    ARCADE_ASSERT(!children.empty(), "AND gate needs children");
    FaultTree t;
    t.gate_ = Gate::And;
    t.children_ = std::move(children);
    return t;
}

FaultTree FaultTree::any_of(std::vector<FaultTree> children) {
    ARCADE_ASSERT(!children.empty(), "OR gate needs children");
    FaultTree t;
    t.gate_ = Gate::Or;
    t.children_ = std::move(children);
    return t;
}

FaultTree FaultTree::k_of_n(std::size_t k, std::vector<FaultTree> children) {
    ARCADE_ASSERT(!children.empty(), "K-of-N gate needs children");
    ARCADE_ASSERT(k >= 1 && k <= children.size(), "K-of-N threshold out of range");
    FaultTree t;
    t.gate_ = Gate::KOfN;
    t.k_ = k;
    t.children_ = std::move(children);
    return t;
}

FaultTree FaultTree::spare_group(std::size_t required, std::vector<FaultTree> children) {
    ARCADE_ASSERT(!children.empty(), "spare gate needs children");
    ARCADE_ASSERT(required >= 1 && required <= children.size(),
                  "spare gate required count out of range");
    FaultTree t;
    t.gate_ = Gate::Spare;
    t.k_ = required;
    t.children_ = std::move(children);
    return t;
}

std::size_t FaultTree::component() const {
    ARCADE_ASSERT(gate_ == Gate::Literal, "component() on a gate node");
    return component_;
}

bool FaultTree::failed(const std::vector<bool>& component_up) const {
    switch (gate_) {
        case Gate::Literal:
            ARCADE_ASSERT(component_ < component_up.size(), "literal out of range");
            return !component_up[component_];
        case Gate::And:
            return std::all_of(children_.begin(), children_.end(),
                               [&](const FaultTree& c) { return c.failed(component_up); });
        case Gate::Or:
            return std::any_of(children_.begin(), children_.end(),
                               [&](const FaultTree& c) { return c.failed(component_up); });
        case Gate::KOfN: {
            std::size_t down = 0;
            for (const auto& c : children_) {
                if (c.failed(component_up)) ++down;
            }
            return down >= k_;
        }
        case Gate::Spare:
            // no service only when every member failed
            return std::all_of(children_.begin(), children_.end(),
                               [&](const FaultTree& c) { return c.failed(component_up); });
    }
    return false;
}

double FaultTree::service_level(const std::vector<bool>& component_up) const {
    switch (gate_) {
        case Gate::Literal:
            return component_up[component_] ? 1.0 : 0.0;
        case Gate::And: {
            // Fault-AND dualises to service-OR: mean of child service.
            double sum = 0.0;
            for (const auto& c : children_) sum += c.service_level(component_up);
            return sum / static_cast<double>(children_.size());
        }
        case Gate::Or: {
            // Fault-OR dualises to service-AND: min of child service.
            double best = 1.0;
            for (const auto& c : children_) {
                best = std::min(best, c.service_level(component_up));
            }
            return best;
        }
        case Gate::KOfN: {
            // "fails when >= k of n fail" needs n-k+1 working.
            double sum = 0.0;
            for (const auto& c : children_) sum += c.service_level(component_up);
            const double needed = static_cast<double>(children_.size() - k_ + 1);
            return std::min(1.0, sum / needed);
        }
        case Gate::Spare: {
            double sum = 0.0;
            for (const auto& c : children_) sum += c.service_level(component_up);
            return std::min(1.0, sum / static_cast<double>(k_));
        }
    }
    return 0.0;
}

namespace {

void collect_literals(const FaultTree& t, std::vector<std::size_t>& out) {
    if (t.gate() == FaultTree::Gate::Literal) {
        out.push_back(t.component());
        return;
    }
    for (const auto& c : t.children()) collect_literals(c, out);
}

}  // namespace

FaultTree FaultTree::down_tree(const ArcadeModel& model) {
    std::vector<FaultTree> phase_trees;
    for (const auto& phase : model.phases) {
        std::vector<FaultTree> lits;
        lits.reserve(phase.components.size());
        for (std::size_t idx : phase.components) lits.push_back(literal(idx));
        const std::size_t n = phase.components.size();
        // Phase is degraded below `required` when more than n - required
        // components failed.
        const std::size_t k = n - phase.required + 1;
        if (lits.size() == 1) {
            phase_trees.push_back(std::move(lits.front()));
        } else {
            phase_trees.push_back(k_of_n(k, std::move(lits)));
        }
    }
    return phase_trees.size() == 1 ? std::move(phase_trees.front())
                                   : any_of(std::move(phase_trees));
}

FaultTree FaultTree::total_failure_tree(const ArcadeModel& model) {
    std::vector<FaultTree> phase_trees;
    for (const auto& phase : model.phases) {
        std::vector<FaultTree> lits;
        lits.reserve(phase.components.size());
        for (std::size_t idx : phase.components) lits.push_back(literal(idx));
        if (lits.size() == 1) {
            phase_trees.push_back(std::move(lits.front()));
        } else if (phase.spare_managed) {
            phase_trees.push_back(spare_group(phase.required, std::move(lits)));
        } else {
            phase_trees.push_back(all_of(std::move(lits)));
        }
    }
    return phase_trees.size() == 1 ? std::move(phase_trees.front())
                                   : any_of(std::move(phase_trees));
}

double phase_service_level(const ArcadeModel& model,
                           const std::vector<std::size_t>& up_per_phase) {
    ARCADE_ASSERT(up_per_phase.size() == model.phases.size(), "phase count mismatch");
    double service = 1.0;
    for (std::size_t p = 0; p < model.phases.size(); ++p) {
        const auto& phase = model.phases[p];
        const double up = static_cast<double>(up_per_phase[p]);
        double s = 0.0;
        if (phase.spare_managed) {
            s = std::min(1.0, up / static_cast<double>(phase.required));
        } else {
            s = up / static_cast<double>(phase.components.size());
        }
        service = std::min(service, s);
    }
    return service;
}

std::vector<double> phase_service_levels(const ArcadeModel& model) {
    std::set<double> levels;
    // Enumerate per-phase attainable values, then all minima combinations:
    // the minimum over phases ranges over the union of per-phase values that
    // are <= every other phase's maximum (1.0), i.e. simply the union.
    levels.insert(0.0);
    levels.insert(1.0);
    for (const auto& phase : model.phases) {
        const std::size_t n = phase.components.size();
        for (std::size_t up = 0; up <= n; ++up) {
            double s = 0.0;
            if (phase.spare_managed) {
                s = std::min(1.0, static_cast<double>(up) / static_cast<double>(phase.required));
            } else {
                s = static_cast<double>(up) / static_cast<double>(n);
            }
            levels.insert(s);
        }
    }
    return {levels.begin(), levels.end()};
}

}  // namespace arcade::core
