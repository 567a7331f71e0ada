// CSL/CSRL model-checking engine (see csl.hpp for the supported grammar,
// csl_compiled.hpp for the path over compiled models).
//
// One recursive evaluator serves both entry points: the raw overloads run
// it on a bare chain with the caller's reward registry; the compiled
// overloads run it on the model's chain(), resolve rewards from the model
// and reuse the session's cached steady-state solve for top-level S/R[S]
// queries.
#include <algorithm>
#include <cmath>

#include "ctmc/bounded_until.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/vector_ops.hpp"
#include "logic/csl.hpp"
#include "logic/csl_compiled.hpp"
#include "support/errors.hpp"

namespace arcade::logic {

namespace {

/// Everything one recursive evaluation reads: the chain to analyse, the
/// resolved reward registry (by reference: structures are never copied or
/// re-looked-up per recursion level) and the numeric tolerance.
struct Context {
    const ctmc::Ctmc& chain;
    const RewardRegistry& rewards;  ///< chain-sized structures
    double epsilon = 1e-12;
};

/// Evaluation result inside the recursion: either a satisfaction set or a
/// per-state value vector (for quantitative sub-queries).
struct Evaluated {
    std::vector<bool> sat;
    std::vector<double> values;
    bool quantitative = false;
};

Evaluated eval(const Context& ctx, const StateFormula& f);

std::vector<bool> eval_boolean(const Context& ctx, const StateFormula& f) {
    Evaluated e = eval(ctx, f);
    if (e.quantitative) {
        throw ModelError("expected a boolean sub-formula but found a =? query");
    }
    return e.sat;
}

bool compare(Comparison cmp, double value, double threshold) {
    switch (cmp) {
        case Comparison::Lt: return value < threshold;
        case Comparison::Le: return value <= threshold;
        case Comparison::Gt: return value > threshold;
        case Comparison::Ge: return value >= threshold;
        case Comparison::Query: break;
    }
    throw ModelError("query bound used where a comparison is required");
}

const rewards::RewardStructure& find_reward(const Context& ctx, const std::string& name) {
    const RewardRegistry& all = ctx.rewards;
    if (all.empty()) throw ModelError("no reward structures registered with the checker");
    if (name.empty()) {
        if (all.size() != 1) {
            throw ModelError("multiple reward structures: name one explicitly, R{\"name\"}");
        }
        return all.begin()->second;
    }
    const auto it = all.find(name);
    if (it == all.end()) throw ModelError("unknown reward structure '" + name + "'");
    return it->second;
}

/// Per-state probabilities for a path formula.
std::vector<double> path_probabilities(const Context& ctx, const PathFormula& path) {
    const std::size_t n = ctx.chain.state_count();
    if (const auto* next = std::get_if<NextPath>(&path)) {
        const std::vector<bool> target = eval_boolean(ctx, *next->operand);
        // P(X f) from state s = sum over f-successors rate / exit (embedded jump).
        std::vector<double> out(n, 0.0);
        for (std::size_t s = 0; s < n; ++s) {
            const double exit = ctx.chain.exit_rate(s);
            if (exit <= 0.0) continue;  // absorbing: no next state
            const auto cols = ctx.chain.rates().row_columns(s);
            const auto vals = ctx.chain.rates().row_values(s);
            double p = 0.0;
            for (std::size_t k = 0; k < cols.size(); ++k) {
                if (cols[k] != s && target[cols[k]]) p += vals[k];
            }
            out[s] = p / exit;
        }
        return out;
    }
    const auto& until = std::get<UntilPath>(path);
    const std::vector<bool> phi = eval_boolean(ctx, *until.lhs);
    const std::vector<bool> psi = eval_boolean(ctx, *until.rhs);
    if (until.time_bound) {
        ctmc::TransientOptions topt;
        topt.epsilon = ctx.epsilon;
        return ctmc::bounded_until_all_states(ctx.chain, phi, psi, *until.time_bound, topt);
    }
    return ctmc::reachability_probability(ctx.chain, phi, psi);
}

Evaluated eval(const Context& ctx, const StateFormula& f) {
    const std::size_t n = ctx.chain.state_count();
    Evaluated out;

    if (const auto* lit = std::get_if<BoolLiteral>(&f.node())) {
        out.sat.assign(n, lit->value);
        return out;
    }
    if (const auto* label = std::get_if<Label>(&f.node())) {
        out.sat = ctx.chain.label(label->name);
        return out;
    }
    if (const auto* neg = std::get_if<Negation>(&f.node())) {
        Evaluated inner = eval(ctx, *neg->operand);
        if (inner.quantitative) {
            // numeric complement: 1 - value (used for the G duality)
            out.quantitative = true;
            out.values.resize(n);
            for (std::size_t s = 0; s < n; ++s) out.values[s] = 1.0 - inner.values[s];
            return out;
        }
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) out.sat[s] = !inner.sat[s];
        return out;
    }
    if (const auto* con = std::get_if<Conjunction>(&f.node())) {
        const auto a = eval_boolean(ctx, *con->lhs);
        const auto b = eval_boolean(ctx, *con->rhs);
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) out.sat[s] = a[s] && b[s];
        return out;
    }
    if (const auto* dis = std::get_if<Disjunction>(&f.node())) {
        const auto a = eval_boolean(ctx, *dis->lhs);
        const auto b = eval_boolean(ctx, *dis->rhs);
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) out.sat[s] = a[s] || b[s];
        return out;
    }
    if (const auto* prob = std::get_if<Probabilistic>(&f.node())) {
        const std::vector<double> p = path_probabilities(ctx, prob->path);
        if (prob->bound.comparison == Comparison::Query) {
            out.quantitative = true;
            out.values = p;
            return out;
        }
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) {
            out.sat[s] = compare(prob->bound.comparison, p[s], prob->bound.threshold);
        }
        return out;
    }
    if (const auto* ss = std::get_if<SteadyState>(&f.node())) {
        const std::vector<bool> target = eval_boolean(ctx, *ss->operand);
        // S applies to the chain as a whole (from the initial distribution).
        const double value = ctmc::steady_state_probability(ctx.chain, target);
        if (ss->bound.comparison == Comparison::Query) {
            out.quantitative = true;
            out.values.assign(n, value);
            return out;
        }
        out.sat.assign(n, compare(ss->bound.comparison, value, ss->bound.threshold));
        return out;
    }
    const auto& reward = std::get<Reward>(f.node());
    const rewards::RewardStructure& structure = find_reward(ctx, reward.structure);
    ctmc::TransientOptions topt;
    topt.epsilon = ctx.epsilon;

    std::vector<double> values(n, 0.0);
    if (const auto* inst = std::get_if<InstantaneousReward>(&reward.property)) {
        for (std::size_t s = 0; s < n; ++s) {
            const auto init = ctmc::Ctmc::point_distribution(n, s);
            values[s] = rewards::instantaneous_reward(ctx.chain, init, structure, inst->time, topt);
        }
    } else if (const auto* cum = std::get_if<CumulativeReward>(&reward.property)) {
        for (std::size_t s = 0; s < n; ++s) {
            const auto init = ctmc::Ctmc::point_distribution(n, s);
            values[s] = rewards::accumulated_reward(ctx.chain, init, structure, cum->time, topt);
        }
    } else {
        const double v = rewards::steady_state_reward(ctx.chain, structure);
        values.assign(n, v);
    }
    if (reward.bound.comparison == Comparison::Query) {
        out.quantitative = true;
        out.values = std::move(values);
        return out;
    }
    out.sat.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        out.sat[s] = compare(reward.bound.comparison, values[s], reward.bound.threshold);
    }
    return out;
}

CheckResult finish(const Evaluated& e, std::span<const double> initial) {
    CheckResult result;
    if (e.quantitative) {
        result.values = e.values;
        result.value = linalg::dot(initial, e.values);
    } else {
        result.satisfaction = e.sat;
        double mass = 0.0;
        for (std::size_t s = 0; s < e.sat.size(); ++s) {
            if (e.sat[s]) mass += initial[s];
        }
        result.holds = mass > 1.0 - 1e-12;
    }
    return result;
}

// ---------------------------------------------------------------------------
// Compiled-model path (csl_compiled.hpp)
// ---------------------------------------------------------------------------

/// The compiled path's reward registry: the model's cost reward plus the
/// caller's structures (given over chain()'s states), which win on a name
/// clash.
RewardRegistry model_rewards(const core::CompiledModel& model, const CheckerOptions& options) {
    RewardRegistry registry;
    registry.emplace(model.cost_reward().name(), model.cost_reward());
    for (const auto& [name, structure] : options.reward_structures) {
        registry.insert_or_assign(name, structure);
    }
    return registry;
}

/// Shapes a chain-global scalar (steady-state query) into a CheckResult the
/// way the recursive evaluator would: uniform per-state vectors.
CheckResult global_scalar_result(double value, const Bound& bound, std::size_t n) {
    CheckResult result;
    if (bound.comparison == Comparison::Query) {
        result.value = value;
        result.values.assign(n, value);
    } else {
        const bool ok = compare(bound.comparison, value, bound.threshold);
        result.holds = ok;
        result.satisfaction.assign(n, ok);
    }
    return result;
}

}  // namespace

CheckResult check(const ctmc::Ctmc& chain, const StateFormula& formula,
                  const CheckerOptions& options) {
    validate(options);
    validate(formula);
    const Context ctx{chain, options.reward_structures, options.epsilon};
    return finish(eval(ctx, formula), chain.initial_distribution());
}

CheckResult check(const ctmc::Ctmc& chain, const std::string& formula,
                  const CheckerOptions& options) {
    return check(chain, *parse_csl(formula), options);
}

CheckResult check(engine::AnalysisSession& session,
                  const engine::AnalysisSession::CompiledPtr& model,
                  const StateFormula& formula, const CheckerOptions& options) {
    ARCADE_ASSERT(model != nullptr, "CSL check of a null model");
    validate(options);
    validate(formula);
    const std::size_t n = model->chain().state_count();

    const RewardRegistry registry = model_rewards(*model, options);
    const Context ctx{model->chain(), registry, options.epsilon};

    // Top-level steady-state queries reuse the session's cached solve — the
    // exact distribution (and summation order) the availability and
    // long-run-cost measures use, so S=?["operational"] IS the availability.
    if (const auto* ss = std::get_if<SteadyState>(&formula.node())) {
        const std::vector<bool> target = eval_boolean(ctx, *ss->operand);
        const auto pi = session.steady_state(model);
        double value = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            if (target[s]) value += (*pi)[s];
        }
        return global_scalar_result(value, ss->bound, n);
    }
    if (const auto* reward = std::get_if<Reward>(&formula.node())) {
        if (std::holds_alternative<SteadyStateReward>(reward->property)) {
            // The dot against the cached distribution is the
            // steady-state-cost measure verbatim.
            const auto& structure = find_reward(ctx, reward->structure);
            const auto pi = session.steady_state(model);
            const double value = linalg::dot(*pi, structure.state_rates());
            return global_scalar_result(value, reward->bound, n);
        }
    }

    return finish(eval(ctx, formula), model->chain().initial_distribution());
}

CheckResult check(engine::AnalysisSession& session,
                  const engine::AnalysisSession::CompiledPtr& model,
                  const std::string& formula, const CheckerOptions& options) {
    return check(session, model, *parse_csl(formula), options);
}

std::vector<double> check_series(const engine::AnalysisSession::CompiledPtr& model,
                                 const StateFormula& formula,
                                 std::span<const double> times,
                                 std::span<const double> initial,
                                 const CheckerOptions& options) {
    ARCADE_ASSERT(model != nullptr, "CSL series check of a null model");
    validate(options);
    validate(formula);
    if (initial.size() != model->chain().state_count()) {
        throw InvalidArgument("check_series: initial distribution size mismatch");
    }

    // A leading Negation is the parser's G<=t desugaring: evaluate the dual
    // query and complement the values (1 - p), like the reliability measure.
    const StateFormula* f = &formula;
    bool complement = false;
    if (const auto* neg = std::get_if<Negation>(&formula.node())) {
        f = neg->operand.get();
        complement = true;
    }

    const RewardRegistry registry = model_rewards(*model, options);
    const Context ctx{model->chain(), registry, options.epsilon};
    const ctmc::Ctmc& chain = model->chain();
    ctmc::TransientOptions topt;
    topt.epsilon = options.epsilon;

    std::vector<double> values;
    if (const auto* prob = std::get_if<Probabilistic>(&f->node())) {
        const auto* until = std::get_if<UntilPath>(&prob->path);
        if (prob->bound.comparison != Comparison::Query || until == nullptr ||
            !until->time_bound) {
            throw InvalidArgument(
                "check_series: the top level must be a time-bounded quantitative query "
                "(P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], optionally negated)");
        }
        // The formula's own bound is nominal; each grid point replaces it,
        // all advanced by one shared evolver — the survivability/reliability
        // measure kernels verbatim.
        const std::vector<bool> phi = eval_boolean(ctx, *until->lhs);
        const std::vector<bool> psi = eval_boolean(ctx, *until->rhs);
        values = ctmc::bounded_until_series(chain, initial, phi, psi, times, topt);
    } else if (const auto* reward = std::get_if<Reward>(&f->node())) {
        if (reward->bound.comparison != Comparison::Query ||
            std::holds_alternative<SteadyStateReward>(reward->property)) {
            throw InvalidArgument(
                "check_series: the top level must be a time-bounded quantitative query "
                "(P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], optionally negated)");
        }
        const auto& structure = find_reward(ctx, reward->structure);
        values = std::holds_alternative<InstantaneousReward>(reward->property)
                     ? rewards::instantaneous_reward_series(chain, initial, structure,
                                                            times, topt)
                     : rewards::accumulated_reward_series(chain, initial, structure,
                                                          times, topt);
    } else {
        throw InvalidArgument(
            "check_series: the top level must be a time-bounded quantitative query "
            "(P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], optionally negated)");
    }
    if (complement) {
        for (double& v : values) v = 1.0 - v;
    }
    return values;
}

}  // namespace arcade::logic
