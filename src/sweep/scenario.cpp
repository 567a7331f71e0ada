#include "sweep/scenario.hpp"

#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <variant>

#include "logic/csl.hpp"
#include "support/errors.hpp"

namespace arcade::sweep {

namespace {

/// Exact textual identity of a double (bit pattern): dedup keys must not
/// merge distinct service levels or grids that round to the same decimals.
std::string bits_string(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return std::to_string(bits);
}

std::string times_key(const std::vector<double>& times) {
    std::uint64_t h = 1469598103934665603ull;
    for (const double t : times) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &t, sizeof bits);
        h ^= bits;
        h *= 1099511628211ull;
    }
    return std::to_string(times.size()) + ":" + std::to_string(h);
}

}  // namespace

std::string to_string(MeasureKind kind) {
    switch (kind) {
        case MeasureKind::Availability: return "availability";
        case MeasureKind::SteadyStateCost: return "steady-state-cost";
        case MeasureKind::StateSpace: return "state-space";
        case MeasureKind::Reliability: return "reliability";
        case MeasureKind::Survivability: return "survivability";
        case MeasureKind::InstantaneousCost: return "instantaneous-cost";
        case MeasureKind::AccumulatedCost: return "accumulated-cost";
        case MeasureKind::Property: return "property";
    }
    throw InvalidArgument("unknown MeasureKind");
}

std::string to_string(DisasterKind kind) {
    switch (kind) {
        case DisasterKind::None: return "none";
        case DisasterKind::AllPumps: return "disaster1";
        case DisasterKind::Mixed: return "disaster2";
    }
    throw InvalidArgument("unknown DisasterKind");
}

MeasureSpec measure_spec(MeasureKind kind, DisasterKind disaster, double service_level,
                         std::vector<double> times) {
    MeasureSpec spec;
    spec.kind = kind;
    spec.disaster = disaster;
    spec.service_level = service_level;
    spec.times = std::move(times);
    return spec;
}

ModelVariant lumped_variant() { return {"lumped", core::Encoding::Lumped, true}; }

ModelVariant individual_variant() {
    return {"individual", core::Encoding::Individual, true};
}

std::string WorkItem::model_key() const {
    std::string key = "line" + std::to_string(line) + "/" + strategy + "/p" +
                      std::to_string(parameter_index) + "/" +
                      (variant.encoding == core::Encoding::Lumped ? "lumped" : "individual");
    // Reliability strips the repair units, so its cells compile their own
    // model even when another measure shares the (line, strategy, variant,
    // parameters) cell; a repair-free variant describes the same model.
    if (!variant.repair || measure.kind == MeasureKind::Reliability) key += "/norepair";
    // The scale changes the compiled model; the default scale adds nothing so
    // unscaled grids keep their pre-scale keys (and cache identities).
    if (scale.extra_pumps > 0) key += "/+" + std::to_string(scale.extra_pumps) + "p";
    return key;
}

std::string WorkItem::key() const {
    std::string key = model_key() + "/v=" + variant.name + "/" +
                      to_string(measure.kind) + "/" + to_string(measure.disaster);
    if (!scale.is_default()) key += "/sc=" + scale.name;
    if (measure.kind == MeasureKind::Survivability) {
        key += "/x=" + bits_string(measure.service_level);
    }
    if (measure.kind == MeasureKind::Property) key += "/f=" + measure.property;
    if (measure.is_series()) key += "/t=" + times_key(measure.times);
    return key;
}

namespace {

/// Eager validation of a property measure: the formula must parse, its
/// thresholds must be well-formed (logic::validate throws InvalidArgument),
/// and a time grid demands a time-bounded quantitative top level — all
/// caught here, not mid-run on a worker thread.
void validate_property(const MeasureSpec& measure) {
    if (measure.property.empty()) {
        throw InvalidArgument("ScenarioGrid: a property measure needs a CSL formula");
    }
    logic::StateFormulaPtr formula;
    try {
        formula = logic::parse_csl(measure.property);
    } catch (const ParseError& e) {
        throw InvalidArgument(std::string("ScenarioGrid: malformed property formula: ") +
                              e.what());
    }
    logic::validate(*formula);
    if (measure.is_series()) {
        const logic::StateFormula* top = formula.get();
        if (const auto* neg = std::get_if<logic::Negation>(&top->node())) {
            top = neg->operand.get();
        }
        const bool time_parametric = [&] {
            if (const auto* prob = std::get_if<logic::Probabilistic>(&top->node())) {
                const auto* until = std::get_if<logic::UntilPath>(&prob->path);
                return prob->bound.comparison == logic::Comparison::Query &&
                       until != nullptr && until->time_bound.has_value();
            }
            if (const auto* reward = std::get_if<logic::Reward>(&top->node())) {
                return reward->bound.comparison == logic::Comparison::Query &&
                       !std::holds_alternative<logic::SteadyStateReward>(reward->property);
            }
            return false;
        }();
        if (!time_parametric) {
            throw InvalidArgument(
                "ScenarioGrid: a property with a time grid must be a time-bounded "
                "quantitative query (P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], "
                "optionally negated): " +
                measure.property);
        }
    } else if (measure.disaster != DisasterKind::None) {
        throw InvalidArgument(
            "ScenarioGrid: a scalar property evaluates the formula as written from the "
            "model's own initial state; it cannot take a disaster");
    }
}

/// Throws on malformed measures; returns false for cells the cross-product
/// prunes (a disaster undefined for the line).
bool validate(int line, const MeasureSpec& measure) {
    if (line != 1 && line != 2) {
        throw InvalidArgument("ScenarioGrid: line number must be 1 or 2, got " +
                              std::to_string(line));
    }
    if (measure.kind == MeasureKind::Reliability &&
        measure.disaster != DisasterKind::None) {
        throw InvalidArgument(
            "ScenarioGrid: reliability starts from the all-up state; it cannot take a "
            "disaster");
    }
    if (measure.kind == MeasureKind::StateSpace &&
        measure.disaster != DisasterKind::None) {
        throw InvalidArgument(
            "ScenarioGrid: state-space is a property of the model, not of a disaster");
    }
    if (measure.kind == MeasureKind::Property) {
        validate_property(measure);
    } else if (!measure.property.empty()) {
        throw InvalidArgument("ScenarioGrid: formula text applies to property measures only");
    }
    if (measure.is_series()) {
        if (measure.times.empty()) {
            throw InvalidArgument("ScenarioGrid: series measure " +
                                  to_string(measure.kind) + " needs a time grid");
        }
        for (std::size_t i = 0; i < measure.times.size(); ++i) {
            if (measure.times[i] < 0.0 ||
                (i > 0 && measure.times[i] < measure.times[i - 1])) {
                throw InvalidArgument("ScenarioGrid: time grid must be ascending and "
                                      "non-negative");
            }
        }
    }
    // Disaster 2 is defined on Line 2 only (paper Section 5): the cell is
    // pruned, not an error, so one spec can cover both lines.
    return !(measure.disaster == DisasterKind::Mixed && line != 2);
}

}  // namespace

std::vector<WorkItem> expand(const ScenarioGrid& grid) {
    // An empty dimension would make the whole sweep a silent no-op; every
    // axis of the cross-product must be populated.
    if (grid.lines.empty()) throw InvalidArgument("ScenarioGrid: no lines");
    if (grid.strategies.empty()) throw InvalidArgument("ScenarioGrid: no strategies");
    if (grid.measures.empty()) throw InvalidArgument("ScenarioGrid: no measures");
    if (grid.parameters.empty()) {
        throw InvalidArgument("ScenarioGrid: at least one parameter set is required");
    }
    if (grid.variants.empty()) {
        throw InvalidArgument("ScenarioGrid: at least one model variant is required");
    }
    if (grid.scales.empty()) {
        throw InvalidArgument("ScenarioGrid: at least one component scale is required");
    }
    std::vector<WorkItem> items;
    std::unordered_set<std::string> seen;
    for (const int line : grid.lines) {
        for (const auto& name : grid.strategies) {
            (void)watertree::strategy(name);  // throws on unknown names, eagerly
            for (const auto& variant : grid.variants) {
                for (std::size_t p = 0; p < grid.parameters.size(); ++p) {
                    for (const auto& scale : grid.scales) {
                        for (const auto& measure : grid.measures) {
                            if (!validate(line, measure)) continue;
                            WorkItem item{line, name, variant, p,
                                          measure, items.size(), scale};
                            if (!item.measure.is_series()) item.measure.times.clear();
                            if (seen.insert(item.key()).second) {
                                items.push_back(std::move(item));
                            }
                        }
                    }
                }
            }
        }
    }
    return items;
}

std::optional<std::size_t> parse_count(const std::string& text) {
    // Strict digits only: stoul's prefix parsing would turn a typo like "3x"
    // into 3.
    if (text.empty() || text.size() > 9 ||
        text.find_first_not_of("0123456789") != std::string::npos) {
        return std::nullopt;
    }
    return static_cast<std::size_t>(std::stoul(text));
}

}  // namespace arcade::sweep
