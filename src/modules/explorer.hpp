// Explicit-state exploration of a ModuleSystem into a labelled CTMC.
//
// Performs breadth-first reachability from the initial valuation, applying
// interleaved commands directly and synchronised commands as the product of
// enabled alternatives per participating module (rates multiply — PRISM CTMC
// semantics).  Produces the CTMC, the per-state variable valuations (held in
// the engine's packed state store), label bitsets and reward structures.
//
// Exploration runs on the engine layer: states are bit-packed into the
// arena-backed store by engine::explore_bfs's serial BFS.  The explored
// chain is always the full chain; lumping happens after exploration.
//
// Every guard, rate, assignment, label and reward expression is prepared
// once per explore (bytecode by default, the expression tree under
// EvalMode::Interp) and evaluated over the same per-state slot values, so
// there is one successor walk, one label/reward sweep and one predicate
// loop whichever evaluator runs.  This is the path PRISM input and the
// Arcade-to-reactive-modules translation take; arcade::compile explores
// with its own encoders.
#ifndef ARCADE_MODULES_EXPLORER_HPP
#define ARCADE_MODULES_EXPLORER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "engine/state_store.hpp"
#include "expr/vm.hpp"
#include "modules/modules.hpp"
#include "rewards/rewards.hpp"

namespace arcade::modules {

struct ExploreOptions {
    std::size_t max_states = 50'000'000;  ///< explosion guard
    unsigned threads = 0;  ///< kept for perfbench; explore ignores it
    /// Evaluator for guards/rates/assignments/labels/rewards.  The default
    /// compiles every expression to bytecode once per model (expr::vm); the
    /// tree interpreter (EvalMode::Interp) is the oracle tests pass
    /// explicitly.  Both run the same walk and produce bitwise-identical
    /// chains and identical ModelErrors.
    expr::EvalMode eval = expr::EvalMode::Vm;
};

/// Result of exploring a module system.
struct ExploredModel {
    ctmc::Ctmc chain;                         ///< with labels installed
    std::vector<std::string> variable_names;  ///< flattened declaration order
    engine::StateStore store;                 ///< packed valuation per state index
    std::map<std::string, rewards::RewardStructure> reward_structures;

    [[nodiscard]] std::size_t state_count() const noexcept { return store.size(); }

    /// Index of a variable in `variable_names` (throws if absent).
    [[nodiscard]] std::size_t variable_index(const std::string& name) const;
    /// Value of variable `name` in state `state`.
    [[nodiscard]] std::int64_t value_of(std::size_t state, const std::string& name) const;
    /// Full valuation of one state (declaration order).
    [[nodiscard]] std::vector<std::int64_t> valuation(std::size_t state) const;
    /// Adapter materialising every valuation as the seed's vector-of-vectors
    /// (XML/PRISM export paths that need all states at once).
    [[nodiscard]] std::vector<std::vector<std::int64_t>> states() const;
};

/// Explores `system` from its initial valuation.  Throws ModelError before
/// exploring on duplicate variables, assignments to unknown variables or an
/// initial value outside its bounds, and while exploring on assignments
/// leaving a declared range, ill-typed expressions, negative rates or
/// state-space overflow.
[[nodiscard]] ExploredModel explore(const ModuleSystem& system,
                                    const ExploreOptions& options = {});

/// Evaluates a boolean expression over every explored state (e.g. an ad-hoc
/// label that was not registered before exploration).  The predicate is
/// prepared once and run per state under `eval` (VM by default).
[[nodiscard]] std::vector<bool> evaluate_state_predicate(
    const ExploredModel& model, const ModuleSystem& system, const expr::Expr& predicate,
    expr::EvalMode eval = expr::EvalMode::Vm);

}  // namespace arcade::modules

#endif  // ARCADE_MODULES_EXPLORER_HPP
