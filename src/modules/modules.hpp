// Stochastic reactive modules in CTMC mode — the intermediate representation
// the paper compiles Arcade models into (Alur & Henzinger's reactive modules
// as realised by the PRISM language).
//
// A system is a set of modules, each owning bounded variables and guarded
// commands  [action] guard -> rate : (x'=e) & (y'=f);  commands with the
// same action label synchronise across modules (rates multiply, PRISM CTMC
// semantics); commands with the empty action interleave.
#ifndef ARCADE_MODULES_MODULES_HPP
#define ARCADE_MODULES_MODULES_HPP

#include <map>
#include <string>
#include <vector>

#include "expr/expr.hpp"

namespace arcade::modules {

enum class VarType { Bool, Int };

/// A bounded state variable.  Bool variables use bounds [0,1].
struct VarDecl {
    std::string name;
    VarType type = VarType::Int;
    long long low = 0;
    long long high = 1;
    long long init = 0;
};

/// One assignment x' = e within an update.
struct Assignment {
    std::string variable;
    expr::Expr value;
};

/// One stochastic alternative of a command: rate expression plus updates.
struct Alternative {
    expr::Expr rate;
    std::vector<Assignment> assignments;
};

/// A guarded command.  `action` empty means interleaved (unsynchronised).
struct Command {
    std::string action;
    expr::Expr guard;
    std::vector<Alternative> alternatives;
};

/// A module: named variables plus commands over the system's variables.
struct Module {
    std::string name;
    std::vector<VarDecl> variables;
    std::vector<Command> commands;

    /// Synchronising alphabet: all non-empty actions in `commands`.
    [[nodiscard]] std::vector<std::string> alphabet() const;
};

/// A guarded reward item: states satisfying `guard` earn `rate` per hour.
struct RewardItem {
    expr::Expr guard;
    expr::Expr rate;
};

struct RewardDecl {
    std::string name;
    std::vector<RewardItem> items;
};

/// A complete system of modules (the "PRISM model").
struct ModuleSystem {
    std::string name = "system";
    std::map<std::string, expr::Value> constants;
    std::vector<Module> modules;
    std::map<std::string, expr::Expr> labels;   ///< named state formulas
    std::vector<RewardDecl> rewards;

    [[nodiscard]] const RewardDecl* find_reward(const std::string& reward_name) const;
    [[nodiscard]] std::vector<VarDecl> all_variables() const;
};

}  // namespace arcade::modules

#endif  // ARCADE_MODULES_MODULES_HPP
