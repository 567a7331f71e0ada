#include "watertree/watertree.hpp"

#include "arcade/measures.hpp"
#include "support/errors.hpp"

namespace arcade::watertree {

std::vector<Strategy> paper_strategies() {
    return {
        {"DED", core::RepairPolicy::Dedicated, 1, false},
        {"FRF-1", core::RepairPolicy::FastestRepairFirst, 1, false},
        {"FRF-2", core::RepairPolicy::FastestRepairFirst, 2, false},
        {"FFF-1", core::RepairPolicy::FastestFailureFirst, 1, false},
        {"FFF-2", core::RepairPolicy::FastestFailureFirst, 2, false},
    };
}

const Strategy& strategy(const std::string& name) {
    static const std::vector<Strategy> all = [] {
        std::vector<Strategy> out = paper_strategies();
        // Preemptive variants of the priority strategies (the scheduling
        // ablation): same policy and crews, crews derived from the state.
        const std::size_t base = out.size();
        for (std::size_t i = 0; i < base; ++i) {
            if (out[i].policy == core::RepairPolicy::Dedicated) continue;
            Strategy pre = out[i];
            pre.name += "-pre";
            pre.preemptive = true;
            out.push_back(std::move(pre));
        }
        return out;
    }();
    for (const auto& s : all) {
        if (s.name == name) return s;
    }
    std::string valid;
    for (const auto& s : all) {
        if (!valid.empty()) valid += ", ";
        valid += s.name;
    }
    throw InvalidArgument("unknown repair strategy '" + name + "' (valid names: " + valid +
                          ")");
}

namespace {

core::ArcadeModel build_line(const std::string& name, std::size_t sandfilters,
                             std::size_t pumps, std::size_t pumps_required,
                             const Strategy& strategy, const Parameters& params) {
    core::ModelBuilder builder(name);
    builder.add_redundant_phase("softener", 3, params.softener_mttf, params.softener_mttr);
    builder.add_redundant_phase("sandfilter", sandfilters, params.sandfilter_mttf,
                                params.sandfilter_mttr);
    builder.add_redundant_phase("reservoir", 1, params.reservoir_mttf, params.reservoir_mttr);
    builder.add_spare_phase("pump", pumps, pumps_required, params.pump_mttf, params.pump_mttr);
    builder.with_failed_cost_rate(params.failed_cost_rate);
    builder.with_repair(strategy.policy, strategy.crews, strategy.preemptive);

    core::ArcadeModel model = builder.build();
    for (auto& ru : model.repair_units) ru.idle_cost_rate = params.idle_cost_rate;
    return model;
}

}  // namespace

core::ArcadeModel line1(const Strategy& strategy, const Parameters& params,
                        std::size_t extra_pumps) {
    std::string name = "line1-" + strategy.name;
    if (extra_pumps > 0) (name += "+") += std::to_string(extra_pumps) + "p";
    return build_line(name, 3, 4 + extra_pumps, 3, strategy, params);
}

core::ArcadeModel line2(const Strategy& strategy, const Parameters& params,
                        std::size_t extra_pumps) {
    std::string name = "line2-" + strategy.name;
    if (extra_pumps > 0) (name += "+") += std::to_string(extra_pumps) + "p";
    return build_line(name, 2, 3 + extra_pumps, 2, strategy, params);
}

core::ArcadeModel line(int number, const Strategy& strategy, const Parameters& params,
                       std::size_t extra_pumps) {
    switch (number) {
        case 1: return line1(strategy, params, extra_pumps);
        case 2: return line2(strategy, params, extra_pumps);
        default: throw InvalidArgument("line number must be 1 or 2");
    }
}

engine::AnalysisSession::CompiledPtr compile_line(engine::AnalysisSession& session,
                                                  int number, const Strategy& strategy,
                                                  core::Encoding encoding,
                                                  const Parameters& params,
                                                  bool with_repair,
                                                  core::ReductionPolicy reduction,
                                                  core::SymmetryPolicy symmetry,
                                                  std::size_t extra_pumps) {
    core::CompileOptions options;
    options.encoding = encoding;
    options.reduction = reduction;
    options.symmetry = symmetry;
    core::ArcadeModel model = line(number, strategy, params, extra_pumps);
    if (!with_repair) model = core::without_repair(model);
    return session.compile(model, options);
}

core::Disaster disaster1(const core::ArcadeModel& line) {
    core::Disaster d;
    d.name = "disaster1-all-pumps";
    d.failed_per_phase.assign(line.phases.size(), 0);
    d.failed_per_phase[kPumps] = line.phases[kPumps].components.size();
    return d;
}

core::Disaster disaster2() {
    core::Disaster d;
    d.name = "disaster2-mixed";
    d.failed_per_phase = {1, 1, 1, 2};  // softener, sand filter, reservoir, pumps
    return d;
}

std::vector<double> service_interval_bounds(const core::ArcadeModel& line) {
    std::vector<double> levels = core::service_levels(line);
    // drop 0 (total failure is not a service interval)
    std::vector<double> bounds;
    for (double x : levels) {
        if (x > 1e-9) bounds.push_back(x);
    }
    return bounds;
}

}  // namespace arcade::watertree
