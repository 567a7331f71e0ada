// AST utilities for CSL/CSRL formulas: the canonical printer (round-trip
// exact with the parser), the structural fingerprint the property caches
// key on and validation of numeric literals.
#include <cmath>

#include "graph/lumping.hpp"
#include "logic/csl.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::logic {

namespace {

std::string bound_string(const Bound& b) {
    std::string out;
    switch (b.comparison) {
        case Comparison::Query: return "=?";
        case Comparison::Lt: out = "<"; break;
        case Comparison::Le: out = "<="; break;
        case Comparison::Gt: out = ">"; break;
        case Comparison::Ge: out = ">="; break;
        default: throw InvalidArgument("unknown Comparison");
    }
    append_g17(out, b.threshold);
    return out;
}

std::string path_string(const PathFormula& path) {
    if (const auto* next = std::get_if<NextPath>(&path)) {
        return "X " + to_string(*next->operand);
    }
    const auto& until = std::get<UntilPath>(path);
    std::string out = to_string(*until.lhs) + " U";
    if (until.time_bound) out += "<=" + format_g17(*until.time_bound);
    return out + " " + to_string(*until.rhs);
}

void validate_bound(const Bound& b, bool probability) {
    if (b.comparison == Comparison::Query) return;
    if (!std::isfinite(b.threshold) || b.threshold < 0.0 ||
        (probability && b.threshold > 1.0)) {
        throw InvalidArgument(
            std::string("CSL: ") + (probability ? "P/S" : "R") + " bound threshold " +
            format_g17(b.threshold) + (probability ? " is not a probability in [0, 1]"
                                                   : " must be finite and non-negative"));
    }
}

void validate_time(double t, const char* what) {
    if (!std::isfinite(t) || t < 0.0) {
        throw InvalidArgument("CSL: " + std::string(what) + " " + format_g17(t) +
                              " must be finite and non-negative");
    }
}

}  // namespace

std::string to_string(const StateFormula& formula) {
    if (const auto* lit = std::get_if<BoolLiteral>(&formula.node())) {
        return lit->value ? "true" : "false";
    }
    if (const auto* label = std::get_if<Label>(&formula.node())) {
        return "\"" + label->name + "\"";
    }
    if (const auto* neg = std::get_if<Negation>(&formula.node())) {
        std::string out = "!";
        out += to_string(*neg->operand);
        return out;
    }
    if (const auto* con = std::get_if<Conjunction>(&formula.node())) {
        std::string out = "(";
        out += to_string(*con->lhs) + " & " + to_string(*con->rhs) + ")";
        return out;
    }
    if (const auto* dis = std::get_if<Disjunction>(&formula.node())) {
        std::string out = "(";
        out += to_string(*dis->lhs) + " | " + to_string(*dis->rhs) + ")";
        return out;
    }
    if (const auto* prob = std::get_if<Probabilistic>(&formula.node())) {
        std::string out = "P";
        out += bound_string(prob->bound) + " [ " + path_string(prob->path) + " ]";
        return out;
    }
    if (const auto* ss = std::get_if<SteadyState>(&formula.node())) {
        std::string out = "S";
        out += bound_string(ss->bound) + " [ " + to_string(*ss->operand) + " ]";
        return out;
    }
    const auto& reward = std::get<Reward>(formula.node());
    std::string out = "R";
    if (!reward.structure.empty()) out += "{\"" + reward.structure + "\"}";
    out += bound_string(reward.bound) + " [ ";
    if (const auto* inst = std::get_if<InstantaneousReward>(&reward.property)) {
        out += "I=" + format_g17(inst->time);
    } else if (const auto* cum = std::get_if<CumulativeReward>(&reward.property)) {
        out += "C<=" + format_g17(cum->time);
    } else {
        out += "S";
    }
    return out + " ]";
}

std::uint64_t fingerprint(const StateFormula& formula, std::uint64_t seed) {
    // The canonical printed form IS the structure (round-trip exact), so
    // hashing it fingerprints the AST; the word mixing is shared with the
    // engine's model fingerprints.
    std::uint64_t h = graph::fnv1a_mix(graph::kFnv1aBasis, seed ^ 0x9e3779b97f4a7c15ull);
    for (const char c : to_string(formula)) {
        h = graph::fnv1a_mix(h, static_cast<unsigned char>(c));
    }
    return h;
}

void validate(const CheckerOptions& options) {
    if (!std::isfinite(options.epsilon) || options.epsilon <= 0.0 ||
        options.epsilon >= 1.0) {
        throw InvalidArgument("CSL: CheckerOptions::epsilon must lie in (0, 1), got " +
                              format_g17(options.epsilon));
    }
}

void validate(const StateFormula& formula) {
    if (const auto* neg = std::get_if<Negation>(&formula.node())) {
        validate(*neg->operand);
        return;
    }
    if (const auto* con = std::get_if<Conjunction>(&formula.node())) {
        validate(*con->lhs);
        validate(*con->rhs);
        return;
    }
    if (const auto* dis = std::get_if<Disjunction>(&formula.node())) {
        validate(*dis->lhs);
        validate(*dis->rhs);
        return;
    }
    if (const auto* prob = std::get_if<Probabilistic>(&formula.node())) {
        validate_bound(prob->bound, /*probability=*/true);
        if (const auto* next = std::get_if<NextPath>(&prob->path)) {
            validate(*next->operand);
            return;
        }
        const auto& until = std::get<UntilPath>(prob->path);
        if (until.time_bound) validate_time(*until.time_bound, "until time bound");
        validate(*until.lhs);
        validate(*until.rhs);
        return;
    }
    if (const auto* ss = std::get_if<SteadyState>(&formula.node())) {
        validate_bound(ss->bound, /*probability=*/true);
        validate(*ss->operand);
        return;
    }
    if (const auto* reward = std::get_if<Reward>(&formula.node())) {
        validate_bound(reward->bound, /*probability=*/false);
        if (const auto* inst = std::get_if<InstantaneousReward>(&reward->property)) {
            validate_time(inst->time, "instantaneous-reward time");
        } else if (const auto* cum = std::get_if<CumulativeReward>(&reward->property)) {
            validate_time(cum->time, "cumulative-reward horizon");
        }
        return;
    }
}

}  // namespace arcade::logic
