#include "modules/modules.hpp"

#include <algorithm>

namespace arcade::modules {

std::vector<std::string> Module::alphabet() const {
    std::vector<std::string> out;
    for (const auto& c : commands) {
        if (!c.action.empty() && std::find(out.begin(), out.end(), c.action) == out.end()) {
            out.push_back(c.action);
        }
    }
    return out;
}

const RewardDecl* ModuleSystem::find_reward(const std::string& reward_name) const {
    for (const auto& r : rewards) {
        if (r.name == reward_name) return &r;
    }
    return nullptr;
}

std::vector<VarDecl> ModuleSystem::all_variables() const {
    std::vector<VarDecl> out;
    for (const auto& m : modules) {
        out.insert(out.end(), m.variables.begin(), m.variables.end());
    }
    return out;
}

}  // namespace arcade::modules
