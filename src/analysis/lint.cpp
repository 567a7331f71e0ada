#include "analysis/lint.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "analysis/interval.hpp"
#include "engine/state_store.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::analysis {

namespace {

using expr::Expr;
using modules::Command;
using modules::Module;
using modules::ModuleSystem;
using modules::VarDecl;
using modules::VarType;

/// Environment over one concrete valuation, with constant fallback — the
/// enumeration (witness-confirmation) twin of the explorer's StateEnv.
class ValuationEnv final : public expr::Environment {
public:
    explicit ValuationEnv(const std::map<std::string, expr::Value>& constants)
        : constants_(constants) {}

    std::map<std::string, expr::Value> values;

    [[nodiscard]] expr::Value lookup(const std::string& name) const override {
        const auto it = values.find(name);
        if (it != values.end()) return it->second;
        const auto cit = constants_.find(name);
        if (cit != constants_.end()) return cit->second;
        throw ModelError("unknown identifier '" + name + "' in expression");
    }

private:
    const std::map<std::string, expr::Value>& constants_;
};

/// Outcome of the witness-confirmation pass.
enum class Verdict {
    Confirmed,  ///< a witness valuation exhibits the behaviour
    Refuted,    ///< exhaustive enumeration found no witness
    Unknown,    ///< domain product exceeds the enumeration limit
};

std::string witness_to_string(const std::map<std::string, expr::Value>& w) {
    std::string out;
    for (const auto& [name, value] : w) {
        if (!out.empty()) out += ", ";
        out += name + "=" + value.to_string();
    }
    return out;
}

/// Byte offset of the Identifier node for `name` inside `e`, or npos.
std::size_t identifier_offset(const Expr& e, const std::string& name) {
    if (e.empty()) return Expr::npos;
    const auto& n = e.node();
    if (const auto* id = std::get_if<expr::Identifier>(&n)) {
        return id->name == name ? e.offset() : Expr::npos;
    }
    if (const auto* u = std::get_if<expr::Unary>(&n)) {
        return identifier_offset(u->operand, name);
    }
    if (const auto* b = std::get_if<expr::Binary>(&n)) {
        const std::size_t lhs = identifier_offset(b->lhs, name);
        return lhs != Expr::npos ? lhs : identifier_offset(b->rhs, name);
    }
    if (const auto* ite = std::get_if<expr::Ite>(&n)) {
        for (const Expr* part : {&ite->cond, &ite->then_branch, &ite->else_branch}) {
            const std::size_t off = identifier_offset(*part, name);
            if (off != Expr::npos) return off;
        }
    }
    return Expr::npos;  // literals carry no identifiers
}

class Linter {
public:
    Linter(const ModuleSystem& system, const LintOptions& options)
        : system_(system), options_(options) {
        vars_ = system.all_variables();
        std::vector<engine::FieldSpec> fields;
        fields.reserve(vars_.size());
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            const VarDecl& v = vars_[i];
            var_index_.emplace(v.name, i);
            fields.push_back(engine::FieldSpec{v.low, v.high});
            base_env_[v.name] = v.type == VarType::Bool
                                    ? AbstractValue::boolean(true, true)
                                    : AbstractValue::numeric(
                                          static_cast<double>(v.low),
                                          static_cast<double>(v.high), true);
        }
        layout_ = engine::StateLayout(fields);
        for (const auto& [name, value] : system.constants) {
            base_env_[name] = AbstractValue::constant(value);
        }
    }

    LintReport run() {
        for (const Module& m : system_.modules) check_module(m);
        for (const auto& [name, predicate] : system_.labels) {
            const std::string where = "label '" + name + "'";
            check_expr(predicate, where);
            note_reads(predicate);
            check_constant_predicate(predicate, where);
        }
        for (const auto& decl : system_.rewards) {
            for (std::size_t i = 0; i < decl.items.size(); ++i) {
                const std::string where =
                    "rewards '" + decl.name + "' item " + std::to_string(i + 1);
                check_expr(decl.items[i].guard, where + " guard");
                check_expr(decl.items[i].rate, where + " rate");
                note_reads(decl.items[i].guard);
                note_reads(decl.items[i].rate);
                check_constant_predicate(decl.items[i].guard, where + " guard");
            }
        }
        check_unused_variables();
        for (const auto& [name, offset] : options_.unused_formulas) {
            add("AR010", Severity::Warning, "formula '" + name + "'",
                "formula is defined but never used", offset);
        }
        return std::move(report_);
    }

private:
    const ModuleSystem& system_;
    const LintOptions& options_;
    LintReport report_;
    std::vector<VarDecl> vars_;
    std::map<std::string, std::size_t> var_index_;
    AbstractEnv base_env_;
    engine::StateLayout layout_;
    std::set<std::string> read_;  ///< names read by any expression (AR007)

    void add(std::string id, Severity severity, std::string where, std::string message,
             std::size_t offset = Expr::npos) {
        switch (severity) {
            case Severity::Error: ++report_.errors; break;
            case Severity::Warning: ++report_.warnings; break;
            case Severity::Note: ++report_.notes; break;
        }
        report_.diagnostics.push_back(Diagnostic{std::move(id), severity,
                                                 std::move(message), std::move(where),
                                                 offset});
    }

    [[nodiscard]] bool known_name(const std::string& name) const {
        return var_index_.contains(name) || system_.constants.contains(name);
    }

    void note_reads(const Expr& e) {
        if (e.empty()) return;
        for (const auto& name : e.free_variables()) read_.insert(name);
    }

    /// AR001 + AR009 over one expression.  Returns true when the expression
    /// was handled as a constant (AR009 territory) and the range checks
    /// should not double-report on it.
    bool check_expr(const Expr& e, const std::string& where) {
        if (e.empty()) return false;
        const auto names = e.free_variables();
        std::set<std::string> reported;
        for (const auto& name : names) {
            if (!known_name(name) && reported.insert(name).second) {
                add("AR001", Severity::Error, where, "unknown identifier '" + name + "'",
                    identifier_offset(e, name));
            }
        }
        if (names.empty() && std::get_if<expr::Literal>(&e.node()) == nullptr) {
            ValuationEnv env(system_.constants);
            try {
                const expr::Value v = e.evaluate(env);
                add("AR009", Severity::Note, where,
                    "constant expression '" + e.to_string() + "' (= " + v.to_string() +
                        ") survived constant folding",
                    e.offset());
            } catch (const ModelError& err) {
                add("AR009", Severity::Error, where,
                    "constant expression '" + e.to_string() +
                        "' always fails to evaluate: " + err.what(),
                    e.offset());
            }
            return true;
        }
        return false;
    }

    /// AR008: a label/reward guard that is provably constant.
    void check_constant_predicate(const Expr& e, const std::string& where) {
        if (e.empty() || e.free_variables().empty()) return;  // AR009's case
        const AbstractValue v = abstract_eval(e, base_env_);
        if (v.always_fails() || v.has_numeric) return;  // type errors, not AR008
        if (v.can_true && !v.can_false) {
            add("AR008", Severity::Note, where, "predicate is constantly true",
                e.offset());
        } else if (v.can_false && !v.can_true) {
            add("AR008", Severity::Note, where, "predicate is constantly false",
                e.offset());
        }
    }

    /// Declarations of the variables the given expressions read, in state
    /// order; nullopt when an unknown identifier prevents enumeration.
    [[nodiscard]] std::optional<std::vector<const VarDecl*>> domain_of(
        std::initializer_list<const Expr*> exprs) const {
        std::set<std::size_t> indices;
        for (const Expr* e : exprs) {
            if (e->empty()) continue;
            for (const auto& name : e->free_variables()) {
                const auto it = var_index_.find(name);
                if (it != var_index_.end()) {
                    indices.insert(it->second);
                } else if (!system_.constants.contains(name)) {
                    return std::nullopt;
                }
            }
        }
        std::vector<const VarDecl*> out;
        out.reserve(indices.size());
        for (const std::size_t i : indices) out.push_back(&vars_[i]);
        return out;
    }

    /// Runs `test` over every valuation of `domain` (each variable over its
    /// declared range).  Stops at the first valuation where `test` returns
    /// true and copies it into `witness`.
    template <typename Test>
    Verdict enumerate(const std::vector<const VarDecl*>& domain, Test&& test,
                      std::map<std::string, expr::Value>& witness) const {
        double product = 1.0;
        for (const VarDecl* v : domain) {
            product *= static_cast<double>(v->high - v->low + 1);
            if (product > static_cast<double>(options_.enumeration_limit)) {
                return Verdict::Unknown;
            }
        }
        ValuationEnv env(system_.constants);
        std::vector<long long> raw(domain.size());
        for (std::size_t i = 0; i < domain.size(); ++i) raw[i] = domain[i]->low;
        while (true) {
            for (std::size_t i = 0; i < domain.size(); ++i) {
                env.values[domain[i]->name] = domain[i]->type == VarType::Bool
                                                  ? expr::Value(raw[i] != 0)
                                                  : expr::Value(raw[i]);
            }
            if (test(static_cast<const expr::Environment&>(env))) {
                witness = env.values;
                return Verdict::Confirmed;
            }
            std::size_t d = 0;
            for (; d < domain.size(); ++d) {
                if (++raw[d] <= domain[d]->high) break;
                raw[d] = domain[d]->low;
            }
            if (d == domain.size()) return Verdict::Refuted;
        }
    }

    [[nodiscard]] static bool guard_holds(const Expr& guard,
                                          const expr::Environment& env) {
        try {
            return guard.evaluate(env).as_bool();
        } catch (const ModelError&) {
            return false;  // failing guards surface through their own checks
        }
    }

    void check_module(const Module& m) {
        const std::string mod = "module '" + m.name + "'";
        for (std::size_t c = 0; c < m.commands.size(); ++c) {
            check_command(m.commands[c], mod + " command " + std::to_string(c + 1));
        }
        check_overlaps(m, mod);
    }

    void check_command(const Command& cmd, const std::string& where) {
        const bool guard_const = check_expr(cmd.guard, where + " guard");
        note_reads(cmd.guard);
        for (const auto& alt : cmd.alternatives) {
            note_reads(alt.rate);
            for (const auto& asg : alt.assignments) note_reads(asg.value);
        }

        // AR002: provably unsatisfiable guard.  A sound proof — skip the
        // per-alternative checks, their witnesses could never be reached.
        if (!guard_const) {
            const AbstractValue g = abstract_eval(cmd.guard, base_env_);
            if (!g.can_true) {
                add("AR002", Severity::Warning, where + " guard",
                    "guard '" + cmd.guard.to_string() + "' is never satisfiable",
                    cmd.guard.offset());
                return;
            }
        }

        const AbstractEnv guarded = refine(base_env_, cmd.guard, true);
        for (std::size_t a = 0; a < cmd.alternatives.size(); ++a) {
            const auto& alt = cmd.alternatives[a];
            const std::string alt_where =
                cmd.alternatives.size() == 1
                    ? where
                    : where + " alternative " + std::to_string(a + 1);
            if (!check_expr(alt.rate, alt_where + " rate")) {
                check_rate(cmd.guard, alt.rate, guarded, alt_where + " rate");
            }
            for (const auto& asg : alt.assignments) {
                check_assignment(cmd.guard, asg, guarded, alt_where);
            }
        }
    }

    /// AR004: the rate of an alternative, under the guard-refined env.
    void check_rate(const Expr& guard, const Expr& rate, const AbstractEnv& guarded,
                    const std::string& where) {
        const AbstractValue r = abstract_eval(rate, guarded);
        if (!r.has_numeric && r.has_bool()) {
            add("AR004", Severity::Error, where,
                "rate '" + rate.to_string() + "' is boolean, not numeric",
                rate.offset());
            return;
        }
        const bool suspicious = r.may_fail || !r.has_numeric || r.lo <= 0.0;
        if (!suspicious) return;

        const auto domain = domain_of({&guard, &rate});
        Verdict verdict = Verdict::Unknown;
        std::string confirmed_message;
        Severity confirmed_severity = Severity::Warning;
        std::map<std::string, expr::Value> witness;
        if (domain) {
            // One pass classifies the worst reachable behaviour: evaluation
            // failure and negative rates are errors, zero rates a warning.
            std::string fail_what;
            const auto test = [&](const expr::Environment& env) {
                if (!guard_holds(guard, env)) return false;
                double value = 0.0;
                try {
                    value = rate.evaluate(env).as_double();
                } catch (const ModelError& err) {
                    fail_what = err.what();
                    return true;
                }
                return value <= 0.0;
            };
            verdict = enumerate(*domain, test, witness);
            if (verdict == Verdict::Confirmed) {
                if (!fail_what.empty()) {
                    confirmed_severity = Severity::Error;
                    confirmed_message = "rate '" + rate.to_string() +
                                        "' fails to evaluate (" + fail_what + ")";
                } else {
                    ValuationEnv env(system_.constants);
                    env.values = witness;
                    const double value = rate.evaluate(env).as_double();
                    confirmed_severity = value < 0.0 ? Severity::Error : Severity::Warning;
                    confirmed_message =
                        "rate '" + rate.to_string() + "' evaluates to " +
                        expr::Value(value).to_string() +
                        (value < 0.0 ? "" : " (zero rate: the transition never fires)");
                }
            }
        }
        switch (verdict) {
            case Verdict::Refuted: return;  // abstract interval was imprecise
            case Verdict::Confirmed:
                add("AR004", confirmed_severity, where,
                    confirmed_message + "; witness: " + witness_to_string(witness),
                    rate.offset());
                return;
            case Verdict::Unknown: break;
        }
        std::string message = "rate '" + rate.to_string() + "' has interval " +
                              r.to_string() +
                              (r.has_numeric && r.lo < 0.0
                                   ? ", which admits negative values"
                                   : ", which admits zero or failing values");
        add("AR004", Severity::Warning, where,
            message + " (domain too large to confirm a witness)", rate.offset());
    }

    /// AR005 + AR006 for one assignment.
    void check_assignment(const Expr& guard, const modules::Assignment& asg,
                          const AbstractEnv& guarded, const std::string& where) {
        const std::string here = where + " assignment to '" + asg.variable + "'";
        const auto target_it = var_index_.find(asg.variable);
        if (target_it == var_index_.end()) {
            add("AR001", Severity::Error, here,
                "assignment to unknown variable '" + asg.variable + "'",
                asg.value.offset());
            return;
        }
        const VarDecl& target = vars_[target_it->second];

        // AR006: x' = x.
        if (!asg.value.empty()) {
            if (const auto* id = std::get_if<expr::Identifier>(&asg.value.node())) {
                if (id->name == asg.variable) {
                    add("AR006", Severity::Note, here,
                        "assignment '" + asg.variable + "' = '" + asg.variable +
                            "' has no effect",
                        asg.value.offset());
                    return;
                }
            }
        }
        if (check_expr(asg.value, here)) return;  // constant, handled by AR009

        const AbstractValue v = abstract_eval(asg.value, guarded);
        if (v.always_fails()) {
            add("AR005", Severity::Error, here, "assignment always fails to evaluate",
                asg.value.offset());
            return;
        }
        // Effective raw range: booleans store as 0/1 (explorer semantics);
        // non-integral numerics fail the int conversion at runtime.
        double lo = v.has_bool() ? 0.0 : v.lo;
        double hi = v.has_bool() ? 1.0 : v.hi;
        if (v.has_numeric) {
            lo = std::min(lo, v.lo);
            hi = std::max(hi, v.hi);
        }
        const bool suspicious = v.may_fail || (v.has_numeric && !v.integral) ||
                                lo < static_cast<double>(target.low) ||
                                hi > static_cast<double>(target.high);
        if (!suspicious) return;

        const auto domain = domain_of({&guard, &asg.value});
        Verdict verdict = Verdict::Unknown;
        std::map<std::string, expr::Value> witness;
        std::string fail_what;
        long long escaped = 0;
        if (domain) {
            const auto test = [&](const expr::Environment& env) {
                if (!guard_holds(guard, env)) return false;
                long long raw = 0;
                try {
                    const expr::Value value = asg.value.evaluate(env);
                    raw = value.is_bool() ? static_cast<long long>(value.as_bool())
                                          : value.as_int();
                } catch (const ModelError& err) {
                    fail_what = err.what();
                    return true;
                }
                if (raw < target.low || raw > target.high) {
                    escaped = raw;
                    return true;
                }
                return false;
            };
            verdict = enumerate(*domain, test, witness);
        }
        switch (verdict) {
            case Verdict::Refuted: return;
            case Verdict::Confirmed: {
                std::string message;
                if (!fail_what.empty()) {
                    message = "assignment fails to evaluate (" + fail_what + ")";
                } else {
                    message = "assignment drives '" + asg.variable + "' to " +
                              std::to_string(escaped) + ", outside its declared [" +
                              std::to_string(target.low) + ", " +
                              std::to_string(target.high) + "] (" +
                              std::to_string(field_bits(target)) +
                              "-bit state field)" + pack_cross_check(target_it->second,
                                                                     escaped, witness);
                }
                add("AR005", Severity::Error, here,
                    message + "; witness: " + witness_to_string(witness),
                    asg.value.offset());
                return;
            }
            case Verdict::Unknown: break;
        }
        add("AR005", Severity::Warning, here,
            "assignment has interval " + v.to_string() + ", which may leave '" +
                asg.variable + "' range [" + std::to_string(target.low) + ", " +
                std::to_string(target.high) +
                "] (domain too large to confirm a witness)",
            asg.value.offset());
    }

    [[nodiscard]] static int field_bits(const VarDecl& v) {
        return std::bit_width(static_cast<std::uint64_t>(v.high - v.low));
    }

    /// Cross-checks a confirmed out-of-range witness against the packed
    /// StateLayout exploration will actually use.
    [[nodiscard]] std::string pack_cross_check(
        std::size_t target_index, long long escaped,
        const std::map<std::string, expr::Value>& witness) const {
        std::vector<std::int64_t> state(vars_.size());
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            state[i] = vars_[i].init;
            const auto it = witness.find(vars_[i].name);
            if (it != witness.end()) {
                state[i] = it->second.is_bool()
                               ? static_cast<std::int64_t>(it->second.as_bool())
                               : it->second.as_int();
            }
        }
        state[target_index] = escaped;
        std::vector<std::uint64_t> words(layout_.words_per_state());
        try {
            layout_.pack(std::span<const std::int64_t>(state), words.data());
        } catch (const ModelError& err) {
            return std::string("; state packing rejects it: ") + err.what();
        }
        return "";
    }

    /// AR003: overlapping guards between same-action commands of one module.
    /// Interleaved (empty-action) commands legitimately race, so only
    /// synchronising actions are paired: both alternatives fire under one
    /// action instance, which is almost always a modelling slip.
    void check_overlaps(const Module& m, const std::string& mod) {
        std::map<std::string, std::vector<std::size_t>> by_action;
        for (std::size_t c = 0; c < m.commands.size(); ++c) {
            if (!m.commands[c].action.empty()) {
                by_action[m.commands[c].action].push_back(c);
            }
        }
        for (const auto& [action, indices] : by_action) {
            for (std::size_t i = 0; i < indices.size(); ++i) {
                for (std::size_t j = i + 1; j < indices.size(); ++j) {
                    check_overlap_pair(m, mod, action, indices[i], indices[j]);
                }
            }
        }
    }

    void check_overlap_pair(const Module& m, const std::string& mod,
                            const std::string& action, std::size_t ci, std::size_t cj) {
        const Expr& g1 = m.commands[ci].guard;
        const Expr& g2 = m.commands[cj].guard;
        const std::string where = mod + " commands " + std::to_string(ci + 1) + " and " +
                                  std::to_string(cj + 1) + " [" + action + "]";
        const AbstractValue a1 = abstract_eval(g1, base_env_);
        const AbstractValue a2 = abstract_eval(g2, base_env_);
        if (!a1.can_true || !a2.can_true) return;  // AR002 covers dead guards
        // Cheap refutation: both guards satisfiable, but never together.
        if (!abstract_eval(g2, refine(base_env_, g1, true)).can_true) return;

        const auto domain = domain_of({&g1, &g2});
        std::map<std::string, expr::Value> witness;
        Verdict verdict = Verdict::Unknown;
        if (domain) {
            const auto test = [&](const expr::Environment& env) {
                return guard_holds(g1, env) && guard_holds(g2, env);
            };
            verdict = enumerate(*domain, test, witness);
        }
        if (verdict == Verdict::Refuted) return;
        std::string message = "guards of synchronising action [" + action +
                              "] overlap — both commands fire for one action instance";
        if (verdict == Verdict::Confirmed) {
            message += "; witness: " + witness_to_string(witness);
        } else {
            message += " (domain too large to confirm a witness)";
        }
        add("AR003", Severity::Warning, where, message, g2.offset());
    }

    /// AR007: declared but never read.
    void check_unused_variables() {
        for (const VarDecl& v : vars_) {
            if (!read_.contains(v.name)) {
                add("AR007", Severity::Warning, "variable '" + v.name + "'",
                    "variable is never read by any guard, rate, assignment, label or "
                    "reward");
            }
        }
    }
};

}  // namespace

std::optional<LintLevel> parse_lint_level(std::string_view text) {
    const std::string t = to_lower(text);
    if (t == "off" || t == "0" || t == "false" || t == "none") return LintLevel::Off;
    if (t == "warn" || t == "warning" || t == "on" || t == "1" || t == "true") {
        return LintLevel::Warn;
    }
    return std::nullopt;
}

std::string_view lint_level_name(LintLevel level) noexcept {
    switch (level) {
        case LintLevel::Off: return "off";
        case LintLevel::Warn: return "warn";
    }
    return "?";
}

std::string_view severity_name(Severity severity) noexcept {
    switch (severity) {
        case Severity::Note: return "note";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

std::string Diagnostic::to_string() const {
    std::string out = std::string(severity_name(severity)) + "[" + id + "]";
    if (!where.empty()) out += " " + where;
    out += ": " + message;
    if (offset != expr::Expr::npos) {
        out += " (source byte " + std::to_string(offset) + ")";
    }
    return out;
}

std::string LintReport::to_string() const {
    std::string out;
    for (const auto& d : diagnostics) {
        out += d.to_string();
        out += '\n';
    }
    return out;
}

LintReport lint(const modules::ModuleSystem& system, const LintOptions& options) {
    return Linter(system, options).run();
}

}  // namespace arcade::analysis
