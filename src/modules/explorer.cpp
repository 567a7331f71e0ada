#include "modules/explorer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "engine/explore.hpp"
#include "support/errors.hpp"

namespace arcade::modules {

namespace {

using State = std::vector<std::int64_t>;

/// Environment over a flat valuation with constant fallback.  Bool variables
/// surface as boolean values so guards like `!b` type-check.  This is the
/// interpreter (oracle) path; the VM path reads the same valuation through
/// slot-indexed loads instead.
class StateEnv final : public expr::Environment {
public:
    StateEnv(const std::map<std::string, expr::Value>& constants,
             const std::unordered_map<std::string, std::size_t>& var_index,
             const std::vector<bool>& is_bool)
        : constants_(constants), var_index_(var_index), is_bool_(is_bool) {}

    void bind(std::span<const std::int64_t> state) { state_ = state; }

    [[nodiscard]] expr::Value lookup(const std::string& name) const override {
        const auto it = var_index_.find(name);
        if (it != var_index_.end()) {
            ARCADE_ASSERT(!state_.empty(), "unbound state environment");
            const std::int64_t raw = state_[it->second];
            if (is_bool_[it->second]) return expr::Value(raw != 0);
            return expr::Value(static_cast<long long>(raw));
        }
        const auto cit = constants_.find(name);
        if (cit != constants_.end()) return cit->second;
        throw ModelError("unknown identifier '" + name + "' in expression");
    }

private:
    const std::map<std::string, expr::Value>& constants_;
    const std::unordered_map<std::string, std::size_t>& var_index_;
    const std::vector<bool>& is_bool_;
    std::span<const std::int64_t> state_;
};

/// One assignment with its target resolved to a slot index.
struct CompiledAssignment {
    std::size_t slot;
    expr::Program value;
};

/// One stochastic alternative, pre-compiled.
struct CompiledAlternative {
    expr::Program rate;
    std::vector<CompiledAssignment> assignments;
};

/// One guarded command, pre-compiled (guard + all alternatives).
struct CompiledCommand {
    expr::Program guard;
    std::vector<CompiledAlternative> alternatives;
};

/// One label predicate, pre-compiled.
struct CompiledLabel {
    std::string name;
    expr::Program program;
};

/// One reward item (guard ? rate contribution), pre-compiled.
struct CompiledRewardItem {
    expr::Program guard;
    expr::Program rate;
};

/// Commands of one action across the participating modules (one inner vector
/// per module that owns commands with this action).
struct SyncGroup {
    std::string action;
    std::vector<std::vector<const Command*>> per_module;
    /// Parallel to per_module; filled when eval != Interp.
    std::vector<std::vector<CompiledCommand>> compiled;
};

/// Immutable exploration context shared by all worker threads.
struct ExploreContext {
    const ModuleSystem& system;
    std::vector<VarDecl> vars;
    std::unordered_map<std::string, std::size_t> var_index;
    std::vector<bool> is_bool;
    std::vector<const Command*> interleaved;
    std::vector<SyncGroup> sync_groups;
    expr::EvalMode eval = expr::EvalMode::Vm;
    expr::SlotMap slot_map;
    /// Parallel to interleaved; filled when eval != Interp.
    std::vector<CompiledCommand> compiled_interleaved;
    /// Labels/rewards, pre-compiled with the commands (eval != Interp).
    std::vector<CompiledLabel> labels;
    std::vector<std::vector<CompiledRewardItem>> rewards;
};

/// Unpacks a state valuation into VM slot values (bool-aware, like the
/// StateEnv lookup), so every program of one state shares the conversion.
void fill_slots(std::span<const std::int64_t> state, const std::vector<bool>& is_bool,
                std::vector<expr::Value>& slots) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i] = is_bool[i] ? expr::Value(state[i] != 0)
                              : expr::Value(static_cast<long long>(state[i]));
    }
}

expr::SlotMap make_slot_map(const ModuleSystem& system,
                            const std::unordered_map<std::string, std::size_t>& var_index) {
    expr::SlotMap map;
    map.constants = &system.constants;
    map.slots.reserve(var_index.size());
    for (const auto& [name, index] : var_index) {
        map.slots.emplace(name, static_cast<std::uint32_t>(index));
    }
    return map;
}

CompiledCommand compile_command(const Command& cmd, const ExploreContext& ctx) {
    CompiledCommand out;
    out.guard = expr::compile(cmd.guard, ctx.slot_map);
    out.alternatives.reserve(cmd.alternatives.size());
    for (const auto& alt : cmd.alternatives) {
        CompiledAlternative ca;
        ca.rate = expr::compile(alt.rate, ctx.slot_map);
        ca.assignments.reserve(alt.assignments.size());
        for (const auto& asg : alt.assignments) {
            const auto it = ctx.var_index.find(asg.variable);
            if (it == ctx.var_index.end()) {
                throw ModelError("assignment to unknown variable '" + asg.variable + "'");
            }
            ca.assignments.push_back(
                CompiledAssignment{it->second, expr::compile(asg.value, ctx.slot_map)});
        }
        out.alternatives.push_back(std::move(ca));
    }
    return out;
}

ExploreContext make_context(const ModuleSystem& system, expr::EvalMode eval) {
    ExploreContext ctx{system, system.all_variables(), {}, {}, {}, {}, eval, {}, {}, {}, {}};
    if (ctx.vars.empty()) throw ModelError("module system has no variables");
    ctx.is_bool.resize(ctx.vars.size(), false);
    for (std::size_t i = 0; i < ctx.vars.size(); ++i) {
        if (!ctx.var_index.emplace(ctx.vars[i].name, i).second) {
            throw ModelError("duplicate variable '" + ctx.vars[i].name + "'");
        }
        ctx.is_bool[i] = ctx.vars[i].type == VarType::Bool;
    }
    ctx.slot_map = make_slot_map(system, ctx.var_index);

    // Group synchronising commands by action.  The hot-path grouping maps
    // are unordered; the resulting groups are sorted by action name so the
    // exploration order (and hence state numbering) is deterministic.
    std::unordered_map<std::string, std::size_t> group_index;
    for (const auto& module : system.modules) {
        std::unordered_map<std::string, std::vector<const Command*>> local;
        std::vector<std::string> local_order;
        for (const auto& cmd : module.commands) {
            if (cmd.action.empty()) {
                ctx.interleaved.push_back(&cmd);
            } else {
                auto [it, inserted] = local.try_emplace(cmd.action);
                if (inserted) local_order.push_back(cmd.action);
                it->second.push_back(&cmd);
            }
        }
        for (const auto& action : local_order) {
            auto [it, inserted] = group_index.try_emplace(action, ctx.sync_groups.size());
            if (inserted) ctx.sync_groups.push_back(SyncGroup{action, {}, {}});
            ctx.sync_groups[it->second].per_module.push_back(std::move(local[action]));
        }
    }
    std::sort(ctx.sync_groups.begin(), ctx.sync_groups.end(),
              [](const SyncGroup& a, const SyncGroup& b) { return a.action < b.action; });

    // Pre-compile every guard/rate/assignment, labels and rewards; the
    // successor loop then runs slot-indexed bytecode only.
    if (ctx.eval != expr::EvalMode::Interp) {
        ctx.compiled_interleaved.reserve(ctx.interleaved.size());
        for (const Command* cmd : ctx.interleaved) {
            ctx.compiled_interleaved.push_back(compile_command(*cmd, ctx));
        }
        for (auto& group : ctx.sync_groups) {
            group.compiled.reserve(group.per_module.size());
            for (const auto& cmds : group.per_module) {
                std::vector<CompiledCommand> here;
                here.reserve(cmds.size());
                for (const Command* cmd : cmds) here.push_back(compile_command(*cmd, ctx));
                group.compiled.push_back(std::move(here));
            }
        }
        for (const auto& [name, predicate] : system.labels) {
            ctx.labels.push_back(
                CompiledLabel{name, expr::compile(predicate, ctx.slot_map)});
        }
        for (const auto& decl : system.rewards) {
            std::vector<CompiledRewardItem> items;
            items.reserve(decl.items.size());
            for (const auto& item : decl.items) {
                items.push_back(CompiledRewardItem{expr::compile(item.guard, ctx.slot_map),
                                                   expr::compile(item.rate, ctx.slot_map)});
            }
            ctx.rewards.push_back(std::move(items));
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

/// Per-thread successor generator over the shared context.  Runs either the
/// bytecode VM (default) or the tree interpreter (oracle); both walk the
/// commands in exactly the same order with bit-identical evaluation
/// semantics, so the emitted transition sequence — and hence the explored
/// chain — is identical bit for bit.
class Worker {
public:
    explicit Worker(const ExploreContext& ctx)
        : ctx_(ctx),
          env_(ctx.system.constants, ctx.var_index, ctx.is_bool),
          slots_(ctx.vars.size()) {}

    template <typename Emit>
    void operator()(std::span<const std::int64_t> current, Emit&& emit) {
        if (ctx_.eval == expr::EvalMode::Interp) {
            run_interp(current, emit);
        } else {
            fill_slots(current, ctx_.is_bool, slots_);
            run_compiled(current, emit);
        }
    }

private:
    /// Runs one compiled program against the pre-filled slot values.
    [[nodiscard]] expr::Value run(const expr::Program& p) const {
        return p.run(std::span<const expr::Value>(slots_));
    }

    /// The bytecode successor walk over the slots of `current`.
    template <typename Emit>
    void run_compiled(std::span<const std::int64_t> current, Emit&& emit) {
        // Interleaved commands.
        for (const CompiledCommand& cmd : ctx_.compiled_interleaved) {
            if (!run(cmd.guard).as_bool()) continue;
            for (const auto& alt : cmd.alternatives) {
                const double rate = run(alt.rate).as_double();
                apply_assignments_compiled(current, {&alt});
                emit(std::span<const std::int64_t>(target_), rate);
            }
        }

        // Synchronised commands: product over participating modules.
        for (const auto& group : ctx_.sync_groups) {
            enabled_vm_.clear();
            bool blocked = false;
            for (const auto& cmds : group.compiled) {
                std::vector<std::pair<const CompiledAlternative*, double>> here;
                for (const CompiledCommand& cmd : cmds) {
                    if (!run(cmd.guard).as_bool()) continue;
                    for (const auto& alt : cmd.alternatives) {
                        here.emplace_back(&alt, run(alt.rate).as_double());
                    }
                }
                if (here.empty()) {
                    blocked = true;
                    break;
                }
                enabled_vm_.push_back(std::move(here));
            }
            if (blocked || enabled_vm_.empty()) continue;

            // Cartesian product.
            pick_.assign(enabled_vm_.size(), 0);
            while (true) {
                double rate = 1.0;
                alts_vm_.clear();
                for (std::size_t m = 0; m < enabled_vm_.size(); ++m) {
                    alts_vm_.push_back(enabled_vm_[m][pick_[m]].first);
                    rate *= enabled_vm_[m][pick_[m]].second;
                }
                apply_assignments_compiled(current, alts_vm_);
                emit(std::span<const std::int64_t>(target_), rate);

                // advance the odometer
                std::size_t d = 0;
                for (; d < pick_.size(); ++d) {
                    if (++pick_[d] < enabled_vm_[d].size()) break;
                    pick_[d] = 0;
                }
                if (d == pick_.size()) break;
            }
        }
    }

    template <typename Emit>
    void run_interp(std::span<const std::int64_t> current, Emit&& emit) {
        // Interleaved commands.
        for (const Command* cmd : ctx_.interleaved) {
            env_.bind(current);
            if (!cmd->guard.evaluate(env_).as_bool()) continue;
            for (const auto& alt : cmd->alternatives) {
                env_.bind(current);
                const double rate = alt.rate.evaluate(env_).as_double();
                apply_assignments(current, {&alt});
                emit(std::span<const std::int64_t>(target_), rate);
            }
        }

        // Synchronised commands: product over participating modules.
        for (const auto& group : ctx_.sync_groups) {
            enabled_.clear();
            bool blocked = false;
            for (const auto& cmds : group.per_module) {
                std::vector<std::pair<const Alternative*, double>> here;
                for (const Command* cmd : cmds) {
                    env_.bind(current);
                    if (!cmd->guard.evaluate(env_).as_bool()) continue;
                    for (const auto& alt : cmd->alternatives) {
                        env_.bind(current);
                        here.emplace_back(&alt, alt.rate.evaluate(env_).as_double());
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

    void store_assignment(std::size_t slot, const expr::Value& v) {
        const std::int64_t raw =
            v.is_bool() ? static_cast<std::int64_t>(v.as_bool()) : v.as_int();
        const auto& decl = ctx_.vars[slot];
        if (raw < decl.low || raw > decl.high) {
            throw ModelError("assignment drives '" + decl.name + "' to " +
                             std::to_string(raw) + ", outside [" + std::to_string(decl.low) +
                             "," + std::to_string(decl.high) + "]");
        }
        target_[slot] = raw;
    }

    void apply_assignments_compiled(std::span<const std::int64_t> from,
                                    std::span<const CompiledAlternative* const> alts) {
        target_.assign(from.begin(), from.end());
        for (const CompiledAlternative* alt : alts) {
            for (const auto& asg : alt->assignments) store_assignment(asg.slot, run(asg.value));
        }
    }

    void apply_assignments_compiled(std::span<const std::int64_t> from,
                                    std::initializer_list<const CompiledAlternative*> alts) {
        apply_assignments_compiled(
            from, std::span<const CompiledAlternative* const>(alts.begin(), alts.size()));
    }

    void apply_assignments(std::span<const std::int64_t> from,
                           std::span<const Alternative* const> alts) {
        target_.assign(from.begin(), from.end());
        env_.bind(from);
        for (const Alternative* alt : alts) {
            for (const auto& asg : alt->assignments) {
                const auto it = ctx_.var_index.find(asg.variable);
                if (it == ctx_.var_index.end()) {
                    throw ModelError("assignment to unknown variable '" + asg.variable + "'");
                }
                store_assignment(it->second, asg.value.evaluate(env_));
            }
        }
    }

    void apply_assignments(std::span<const std::int64_t> from,
                           std::initializer_list<const Alternative*> alts) {
        apply_assignments(from, std::span<const Alternative* const>(alts.begin(), alts.size()));
    }

    const ExploreContext& ctx_;
    StateEnv env_;
    std::vector<expr::Value> slots_;
    State target_;
    std::vector<std::vector<std::pair<const Alternative*, double>>> enabled_;
    std::vector<std::vector<std::pair<const CompiledAlternative*, double>>> enabled_vm_;
    std::vector<std::size_t> pick_;
    std::vector<const Alternative*> alts_;
    std::vector<const CompiledAlternative*> alts_vm_;
};

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

    engine::EngineOptions engine_options;
    engine_options.max_states = options.max_states;
    engine_options.threads = options.threads;
    auto explored = engine::explore_bfs(
        make_layout(ctx.vars), initial, [&ctx] { return Worker(ctx); }, engine_options);
    engine::StateStore store = std::move(explored.store);

    std::vector<double> init_dist(store.size(), 0.0);
    init_dist[0] = 1.0;
    ctmc::Ctmc chain(std::move(explored.rates), std::move(init_dist));

    ExploredModel out{std::move(chain), {}, std::move(store), {}};
    out.variable_names.reserve(ctx.vars.size());
    for (const auto& v : ctx.vars) out.variable_names.push_back(v.name);

    // Labels and rewards: one serial sweep over the decoded states, reusing
    // the same compiled programs (or the oracle environment) per state.
    const std::size_t n = out.store.size();
    State values(ctx.vars.size());
    if (ctx.eval != expr::EvalMode::Interp) {
        // Labels/rewards were compiled with the commands (make_context).
        std::vector<expr::Value> slots(ctx.vars.size());
        std::vector<std::vector<bool>> label_bits(ctx.labels.size(),
                                                  std::vector<bool>(n, false));
        std::vector<std::vector<double>> reward_rates(ctx.rewards.size(),
                                                      std::vector<double>(n, 0.0));
        const std::span<const expr::Value> slot_view(slots);
        for (std::size_t s = 0; s < n; ++s) {
            out.store.unpack(s, std::span<std::int64_t>(values));
            fill_slots(values, ctx.is_bool, slots);
            for (std::size_t l = 0; l < ctx.labels.size(); ++l) {
                label_bits[l][s] = ctx.labels[l].program.run(slot_view).as_bool();
            }
            for (std::size_t r = 0; r < ctx.rewards.size(); ++r) {
                double rate = 0.0;
                for (const auto& item : ctx.rewards[r]) {
                    if (item.guard.run(slot_view).as_bool()) {
                        rate += item.rate.run(slot_view).as_double();
                    }
                }
                reward_rates[r][s] = rate;
            }
        }
        for (std::size_t l = 0; l < ctx.labels.size(); ++l) {
            out.chain.set_label(ctx.labels[l].name, std::move(label_bits[l]));
        }
        for (std::size_t r = 0; r < ctx.rewards.size(); ++r) {
            out.reward_structures.emplace(
                system.rewards[r].name,
                rewards::RewardStructure(system.rewards[r].name,
                                         std::move(reward_rates[r])));
        }
    } else {
        StateEnv env(system.constants, ctx.var_index, ctx.is_bool);
        for (const auto& [name, predicate] : system.labels) {
            std::vector<bool> bits(n, false);
            for (std::size_t s = 0; s < n; ++s) {
                out.store.unpack(s, std::span<std::int64_t>(values));
                env.bind(values);
                bits[s] = predicate.evaluate(env).as_bool();
            }
            out.chain.set_label(name, std::move(bits));
        }
        for (const auto& decl : system.rewards) {
            std::vector<double> rates(n, 0.0);
            for (std::size_t s = 0; s < n; ++s) {
                out.store.unpack(s, std::span<std::int64_t>(values));
                env.bind(values);
                double r = 0.0;
                for (const auto& item : decl.items) {
                    if (item.guard.evaluate(env).as_bool()) {
                        r += item.rate.evaluate(env).as_double();
                    }
                }
                rates[s] = r;
            }
            out.reward_structures.emplace(decl.name,
                                          rewards::RewardStructure(decl.name, std::move(rates)));
        }
    }
    return out;
}

std::vector<bool> evaluate_state_predicate(const ExploredModel& model,
                                           const ModuleSystem& system,
                                           const expr::Expr& predicate,
                                           expr::EvalMode eval) {
    std::unordered_map<std::string, std::size_t> var_index;
    for (std::size_t i = 0; i < model.variable_names.size(); ++i) {
        var_index.emplace(model.variable_names[i], i);
    }
    const auto vars = system.all_variables();
    std::vector<bool> is_bool(model.variable_names.size(), false);
    for (const auto& v : vars) {
        const auto it = var_index.find(v.name);
        if (it != var_index.end()) is_bool[it->second] = v.type == VarType::Bool;
    }
    std::vector<bool> bits(model.store.size(), false);
    State values(model.variable_names.size());
    if (eval != expr::EvalMode::Interp) {
        const expr::SlotMap slot_map = make_slot_map(system, var_index);
        const expr::Program program = expr::compile(predicate, slot_map);
        std::vector<expr::Value> slots(model.variable_names.size());
        for (std::size_t s = 0; s < model.store.size(); ++s) {
            model.store.unpack(s, std::span<std::int64_t>(values));
            fill_slots(values, is_bool, slots);
            bits[s] = program.run(slots).as_bool();
        }
        return bits;
    }
    StateEnv env(system.constants, var_index, is_bool);
    for (std::size_t s = 0; s < model.store.size(); ++s) {
        model.store.unpack(s, std::span<std::int64_t>(values));
        env.bind(values);
        bits[s] = predicate.evaluate(env).as_bool();
    }
    return bits;
}

}  // namespace arcade::modules
