#include "modules/explorer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "engine/explore.hpp"
#include "support/errors.hpp"

namespace arcade::modules {

namespace {

using State = std::vector<std::int64_t>;

/// Name resolution shared by every expression of one explore: variable
/// slots (state order), which of them are bool, the slot map (which also
/// points at the system's constants) and the evaluator the expressions are
/// prepared for.
struct Scope {
    std::unordered_map<std::string, std::size_t> var_index;
    std::vector<bool> is_bool;
    expr::SlotMap slot_map;
    bool interp = false;
};

/// Resolves the state slots `names` against `system`.  The only reader of
/// EvalMode in the modules layer: everything downstream just runs the
/// Prepared expressions this scope produces.
Scope make_scope(const std::vector<std::string>& names, const ModuleSystem& system,
                 expr::EvalMode eval) {
    Scope scope;
    scope.is_bool.resize(names.size(), false);
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (!scope.var_index.emplace(names[i], i).second) {
            throw ModelError("duplicate variable '" + names[i] + "'");
        }
    }
    for (const auto& v : system.all_variables()) {
        const auto it = scope.var_index.find(v.name);
        if (it != scope.var_index.end()) scope.is_bool[it->second] = v.type == VarType::Bool;
    }
    scope.slot_map.constants = &system.constants;
    for (const auto& [name, index] : scope.var_index) {
        scope.slot_map.slots.emplace(name, static_cast<std::uint32_t>(index));
    }
    scope.interp = eval == expr::EvalMode::Interp;
    return scope;
}

/// The values of one state as expression Values (bool variables surface as
/// booleans so guards like `!b` type-check).  Programs read them by slot;
/// the tree walker reads the same values by name through lookup().
class Frame final : public expr::Environment {
public:
    explicit Frame(const Scope& scope) : scope_(scope), slots_(scope.is_bool.size()) {}

    void load(std::span<const std::int64_t> state) {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            slots_[i] = scope_.is_bool[i] ? expr::Value(state[i] != 0)
                                          : expr::Value(static_cast<long long>(state[i]));
        }
    }

    [[nodiscard]] std::span<const expr::Value> slots() const { return slots_; }

    [[nodiscard]] expr::Value lookup(const std::string& name) const override {
        const auto it = scope_.var_index.find(name);
        if (it != scope_.var_index.end()) return slots_[it->second];
        const auto& constants = *scope_.slot_map.constants;
        const auto cit = constants.find(name);
        if (cit != constants.end()) return cit->second;
        throw ModelError("unknown identifier '" + name + "' in expression");
    }

private:
    const Scope& scope_;
    std::vector<expr::Value> slots_;
};

/// A guard, rate, assignment, label or reward expression, prepared once per
/// explore: compiled to bytecode by default, or kept as the tree that the
/// interpreter walks under EvalMode::Interp (the oracle tests select).  Both
/// evaluators share apply_binary/apply_unary and short-circuiting, so the
/// walk below yields bit-identical chains and errors under either.
class Prepared {
public:
    Prepared(const expr::Expr& e, const Scope& scope) {
        if (scope.interp) {
            tree_ = &e;
        } else {
            program_ = expr::compile(e, scope.slot_map);
        }
    }

    /// The interpreter branch is marked unlikely so the VM call stays on the
    /// straight-line path: unmarked, explore measured ~3% slower.
    [[nodiscard]] expr::Value operator()(const Frame& frame) const {
        if (tree_ != nullptr) [[unlikely]] return tree_->evaluate(frame);
        return program_.run(frame.slots());
    }

private:
    const expr::Expr* tree_ = nullptr;  ///< set under Interp; owned by the caller
    expr::Program program_;
};

struct PreparedAssignment {
    std::size_t slot;
    Prepared value;
};

struct PreparedAlternative {
    Prepared rate;
    std::vector<PreparedAssignment> assignments;
};

struct PreparedCommand {
    Prepared guard;
    std::vector<PreparedAlternative> alternatives;
};

struct PreparedRewardItem {
    Prepared guard;
    Prepared rate;
};

/// Commands of one action, one inner vector per module that owns commands
/// with this action.
using SyncGroup = std::vector<std::vector<PreparedCommand>>;

/// Immutable exploration context: the prepared expressions of one explore.
struct ExploreContext {
    std::vector<VarDecl> vars;
    Scope scope;
    std::vector<PreparedCommand> interleaved;
    std::vector<SyncGroup> sync_groups;  ///< sorted by action name
    std::vector<std::pair<std::string, Prepared>> labels;
    std::vector<std::vector<PreparedRewardItem>> rewards;  ///< parallel to system.rewards
};

PreparedCommand prepare_command(const Command& cmd, const Scope& scope) {
    PreparedCommand out{Prepared(cmd.guard, scope), {}};
    out.alternatives.reserve(cmd.alternatives.size());
    for (const auto& alt : cmd.alternatives) {
        PreparedAlternative pa{Prepared(alt.rate, scope), {}};
        pa.assignments.reserve(alt.assignments.size());
        for (const auto& asg : alt.assignments) {
            const auto it = scope.var_index.find(asg.variable);
            if (it == scope.var_index.end()) {
                throw ModelError("assignment to unknown variable '" + asg.variable + "'");
            }
            pa.assignments.push_back(PreparedAssignment{it->second, Prepared(asg.value, scope)});
        }
        out.alternatives.push_back(std::move(pa));
    }
    return out;
}

ExploreContext make_context(const ModuleSystem& system, expr::EvalMode eval) {
    ExploreContext ctx{system.all_variables(), {}, {}, {}, {}, {}};
    if (ctx.vars.empty()) throw ModelError("module system has no variables");
    std::vector<std::string> names;
    names.reserve(ctx.vars.size());
    for (const auto& v : ctx.vars) names.push_back(v.name);
    ctx.scope = make_scope(names, system, eval);

    // Group synchronising commands by action.  The hot-path grouping maps
    // are unordered; the resulting groups are sorted by action name so the
    // exploration order (and hence state numbering) is deterministic.
    std::vector<const Command*> interleaved;
    std::vector<std::pair<std::string, std::vector<std::vector<const Command*>>>> groups;
    std::unordered_map<std::string, std::size_t> group_index;
    for (const auto& module : system.modules) {
        std::unordered_map<std::string, std::vector<const Command*>> local;
        std::vector<std::string> local_order;
        for (const auto& cmd : module.commands) {
            if (cmd.action.empty()) {
                interleaved.push_back(&cmd);
            } else {
                auto [it, inserted] = local.try_emplace(cmd.action);
                if (inserted) local_order.push_back(cmd.action);
                it->second.push_back(&cmd);
            }
        }
        for (const auto& action : local_order) {
            auto [it, inserted] = group_index.try_emplace(action, groups.size());
            if (inserted) groups.emplace_back(action, std::vector<std::vector<const Command*>>{});
            groups[it->second].second.push_back(std::move(local[action]));
        }
    }
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    // Prepare every guard/rate/assignment, then labels and rewards, once.
    const auto prepare_all = [&ctx](const std::vector<const Command*>& cmds) {
        std::vector<PreparedCommand> out;
        out.reserve(cmds.size());
        for (const Command* cmd : cmds) out.push_back(prepare_command(*cmd, ctx.scope));
        return out;
    };
    ctx.interleaved = prepare_all(interleaved);
    for (const auto& group : groups) {
        SyncGroup& prepared = ctx.sync_groups.emplace_back();
        for (const auto& cmds : group.second) prepared.push_back(prepare_all(cmds));
    }
    for (const auto& [name, predicate] : system.labels) {
        ctx.labels.emplace_back(name, Prepared(predicate, ctx.scope));
    }
    for (const auto& decl : system.rewards) {
        auto& items = ctx.rewards.emplace_back();
        items.reserve(decl.items.size());
        for (const auto& item : decl.items) {
            items.push_back(PreparedRewardItem{Prepared(item.guard, ctx.scope),
                                               Prepared(item.rate, ctx.scope)});
        }
    }
    return ctx;
}

engine::StateLayout make_layout(const std::vector<VarDecl>& vars) {
    std::vector<engine::FieldSpec> fields;
    fields.reserve(vars.size());
    for (const auto& v : vars) fields.push_back(engine::FieldSpec{v.low, v.high});
    return engine::StateLayout(fields);
}

/// Successor generator over the context: the one walk over interleaved
/// commands and the synchronised products, whichever evaluator the
/// context's expressions were prepared for.
class SuccessorWalk {
public:
    explicit SuccessorWalk(const ExploreContext& ctx) : ctx_(ctx), frame_(ctx.scope) {}

    template <typename Emit>
    void operator()(std::span<const std::int64_t> current, Emit&& emit) {
        frame_.load(current);

        // Interleaved commands.
        for (const PreparedCommand& cmd : ctx_.interleaved) {
            if (!cmd.guard(frame_).as_bool()) continue;
            for (const auto& alt : cmd.alternatives) {
                const double rate = alt.rate(frame_).as_double();
                const PreparedAlternative* const one[] = {&alt};
                apply_assignments(current, one);
                emit(std::span<const std::int64_t>(target_), rate);
            }
        }

        // Synchronised commands: product over participating modules.
        for (const SyncGroup& group : ctx_.sync_groups) {
            enabled_.clear();
            bool blocked = false;
            for (const auto& cmds : group) {
                std::vector<std::pair<const PreparedAlternative*, double>> here;
                for (const PreparedCommand& cmd : cmds) {
                    if (!cmd.guard(frame_).as_bool()) continue;
                    for (const auto& alt : cmd.alternatives) {
                        here.emplace_back(&alt, alt.rate(frame_).as_double());
                    }
                }
                if (here.empty()) {
                    blocked = true;
                    break;
                }
                enabled_.push_back(std::move(here));
            }
            if (blocked || enabled_.empty()) continue;

            // Cartesian product.
            pick_.assign(enabled_.size(), 0);
            while (true) {
                double rate = 1.0;
                alts_.clear();
                for (std::size_t m = 0; m < enabled_.size(); ++m) {
                    alts_.push_back(enabled_[m][pick_[m]].first);
                    rate *= enabled_[m][pick_[m]].second;
                }
                apply_assignments(current, alts_);
                emit(std::span<const std::int64_t>(target_), rate);

                // advance the odometer
                std::size_t d = 0;
                for (; d < pick_.size(); ++d) {
                    if (++pick_[d] < enabled_[d].size()) break;
                    pick_[d] = 0;
                }
                if (d == pick_.size()) break;
            }
        }
    }

private:
    void apply_assignments(std::span<const std::int64_t> from,
                           std::span<const PreparedAlternative* const> alts) {
        target_.assign(from.begin(), from.end());
        for (const PreparedAlternative* alt : alts) {
            for (const auto& asg : alt->assignments) {
                const expr::Value v = asg.value(frame_);
                const std::int64_t raw =
                    v.is_bool() ? static_cast<std::int64_t>(v.as_bool()) : v.as_int();
                const auto& decl = ctx_.vars[asg.slot];
                if (raw < decl.low || raw > decl.high) {
                    throw ModelError("assignment drives '" + decl.name + "' to " +
                                     std::to_string(raw) + ", outside [" +
                                     std::to_string(decl.low) + "," +
                                     std::to_string(decl.high) + "]");
                }
                target_[asg.slot] = raw;
            }
        }
    }

    const ExploreContext& ctx_;
    Frame frame_;
    State target_;
    std::vector<std::vector<std::pair<const PreparedAlternative*, double>>> enabled_;
    std::vector<std::size_t> pick_;
    std::vector<const PreparedAlternative*> alts_;
};

/// Loads every state of `store` into `frame` in index order and calls
/// `visit(s)`: the one per-state sweep behind labels, rewards and ad-hoc
/// predicates.
template <typename Visit>
void for_each_state(const engine::StateStore& store, Frame& frame, Visit&& visit) {
    State values(store.layout().field_count());
    for (std::size_t s = 0; s < store.size(); ++s) {
        store.unpack(s, std::span<std::int64_t>(values));
        frame.load(values);
        visit(s);
    }
}

}  // namespace

std::size_t ExploredModel::variable_index(const std::string& name) const {
    for (std::size_t i = 0; i < variable_names.size(); ++i) {
        if (variable_names[i] == name) return i;
    }
    throw ModelError("unknown variable '" + name + "'");
}

std::int64_t ExploredModel::value_of(std::size_t state, const std::string& name) const {
    ARCADE_ASSERT(state < store.size(), "state index out of range");
    return store.value(state, variable_index(name));
}

std::vector<std::int64_t> ExploredModel::valuation(std::size_t state) const {
    std::vector<std::int64_t> out(variable_names.size());
    store.unpack(state, std::span<std::int64_t>(out));
    return out;
}

std::vector<std::vector<std::int64_t>> ExploredModel::states() const {
    std::vector<std::vector<std::int64_t>> out;
    out.reserve(store.size());
    for (std::size_t s = 0; s < store.size(); ++s) out.push_back(valuation(s));
    return out;
}

ExploredModel explore(const ModuleSystem& system, const ExploreOptions& options) {
    const ExploreContext ctx = make_context(system, options.eval);

    State initial(ctx.vars.size());
    for (std::size_t i = 0; i < ctx.vars.size(); ++i) {
        const auto& v = ctx.vars[i];
        if (v.init < v.low || v.init > v.high) {
            throw ModelError("initial value of '" + v.name + "' violates its bounds");
        }
        initial[i] = v.init;
    }

    auto explored = engine::explore_bfs(make_layout(ctx.vars), initial, SuccessorWalk(ctx),
                                        engine::EngineOptions{.max_states = options.max_states});
    engine::StateStore store = std::move(explored.store);

    std::vector<double> init_dist(store.size(), 0.0);
    init_dist[0] = 1.0;
    ctmc::Ctmc chain(std::move(explored.rates), std::move(init_dist));

    ExploredModel out{std::move(chain), {}, std::move(store), {}};
    out.variable_names.reserve(ctx.vars.size());
    for (const auto& v : ctx.vars) out.variable_names.push_back(v.name);

    // Labels and rewards: one serial sweep over the decoded states.
    const std::size_t n = out.store.size();
    std::vector<std::vector<bool>> label_bits(ctx.labels.size(), std::vector<bool>(n, false));
    std::vector<std::vector<double>> reward_rates(ctx.rewards.size(),
                                                  std::vector<double>(n, 0.0));
    Frame frame(ctx.scope);
    for_each_state(out.store, frame, [&](std::size_t s) {
        for (std::size_t l = 0; l < ctx.labels.size(); ++l) {
            label_bits[l][s] = ctx.labels[l].second(frame).as_bool();
        }
        for (std::size_t r = 0; r < ctx.rewards.size(); ++r) {
            double rate = 0.0;
            for (const auto& item : ctx.rewards[r]) {
                if (item.guard(frame).as_bool()) rate += item.rate(frame).as_double();
            }
            reward_rates[r][s] = rate;
        }
    });
    for (std::size_t l = 0; l < ctx.labels.size(); ++l) {
        out.chain.set_label(ctx.labels[l].first, std::move(label_bits[l]));
    }
    for (std::size_t r = 0; r < ctx.rewards.size(); ++r) {
        const std::string& name = system.rewards[r].name;
        out.reward_structures.emplace(
            name, rewards::RewardStructure(name, std::move(reward_rates[r])));
    }
    return out;
}

std::vector<bool> evaluate_state_predicate(const ExploredModel& model,
                                           const ModuleSystem& system,
                                           const expr::Expr& predicate,
                                           expr::EvalMode eval) {
    const Scope scope = make_scope(model.variable_names, system, eval);
    const Prepared prepared(predicate, scope);
    std::vector<bool> bits(model.store.size(), false);
    Frame frame(scope);
    for_each_state(model.store, frame,
                   [&](std::size_t s) { bits[s] = prepared(frame).as_bool(); });
    return bits;
}

}  // namespace arcade::modules
