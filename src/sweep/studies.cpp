#include "sweep/studies.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>

#include "sweep/paper.hpp"
#include "support/errors.hpp"
#include "support/series.hpp"

namespace arcade::sweep::studies {

using paper::find_or_throw;

ScenarioGrid ablation_encodings() {
    ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = paper::strategy_names();
    grid.variants = {individual_variant(), lumped_variant()};
    grid.measures = {measure_spec(MeasureKind::Availability)};
    return grid;
}

void render_ablation_encodings(const SweepReport& report, std::ostream& os) {
    os << "=== Ablation: individual vs lumped encoding ===\n\n";
    Table table({"Model", "Indiv. states", "Lumped states", "Reduction", "Indiv. avail",
                 "Lumped avail", "|diff|"});
    char buf[64];
    for (const int line : {1, 2}) {
        for (const auto& name : paper::strategy_names()) {
            const auto& individual = find_or_throw(report, line, name,
                                                   MeasureKind::Availability,
                                                   DisasterKind::None, 1.0, "individual");
            const auto& lumped = find_or_throw(report, line, name,
                                               MeasureKind::Availability,
                                               DisasterKind::None, 1.0, "lumped");
            const double ai = individual.values.front();
            const double al = lumped.values.front();
            std::vector<std::string> cells;
            cells.emplace_back("line" + std::to_string(line) + " " + name);
            cells.emplace_back(std::to_string(individual.model_states));
            cells.emplace_back(std::to_string(lumped.model_states));
            std::snprintf(buf, sizeof buf, "%.1fx",
                          static_cast<double>(individual.model_states) /
                              static_cast<double>(lumped.model_states));
            cells.emplace_back(buf);
            std::snprintf(buf, sizeof buf, "%.7f", ai);
            cells.emplace_back(buf);
            std::snprintf(buf, sizeof buf, "%.7f", al);
            cells.emplace_back(buf);
            std::snprintf(buf, sizeof buf, "%.1e", std::abs(ai - al));
            cells.emplace_back(buf);
            table.add_row(std::move(cells));
        }
    }
    table.print(os);
    os << "\n(measures agree to solver precision; the lumped encoding is the\n"
          " 'drastic reduction' the paper's conclusion anticipates)\n";
}

ScenarioGrid ablation_preemption() {
    ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"FRF-1", "FRF-1-pre", "FRF-2", "FRF-2-pre",
                       "FFF-1", "FFF-1-pre", "FFF-2", "FFF-2-pre"};
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::Survivability, DisasterKind::Mixed, 1.0, {0.0, 10.0}),
    };
    return grid;
}

ScenarioGrid ablation_preemption_sizes() {
    ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"FRF-1-pre"};
    grid.variants = {individual_variant()};
    grid.measures = {measure_spec(MeasureKind::StateSpace)};
    return grid;
}

void render_ablation_preemption(const SweepReport& report, const SweepReport& sizes,
                                std::ostream& os) {
    os << "=== Ablation: non-preemptive (paper) vs preemptive scheduling ===\n\n";
    Table table({"Strategy", "Avail (non-pre)", "Avail (preempt)", "Surv@10h X4 (non-pre)",
                 "Surv@10h X4 (preempt)"});
    char buf[64];
    for (const auto* name : {"FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
        const std::string pre = std::string(name) + "-pre";
        std::vector<std::string> cells;
        cells.emplace_back(name);
        std::snprintf(buf, sizeof buf, "%.7f",
                      find_or_throw(report, 2, name, MeasureKind::Availability,
                                    DisasterKind::None, 1.0, {})
                          .values.front());
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.7f",
                      find_or_throw(report, 2, pre, MeasureKind::Availability,
                                    DisasterKind::None, 1.0, {})
                          .values.front());
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.5f",
                      find_or_throw(report, 2, name, MeasureKind::Survivability,
                                    DisasterKind::Mixed, 1.0, {})
                          .values.back());
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.5f",
                      find_or_throw(report, 2, pre, MeasureKind::Survivability,
                                    DisasterKind::Mixed, 1.0, {})
                          .values.back());
        cells.emplace_back(buf);
        table.add_row(std::move(cells));
    }
    table.print(os);
    os << "\n(state spaces also differ: preemption needs no tracked in-repair\n"
          " slot, so the individual encoding shrinks from 8129 states to "
       << find_or_throw(sizes, 2, "FRF-1-pre", MeasureKind::StateSpace,
                        DisasterKind::None, 1.0, "individual")
              .model_states
       << ")\n";
}

ScenarioGrid mttr_sensitivity(const std::vector<double>& scales) {
    if (scales.empty()) {
        throw InvalidArgument("mttr_sensitivity: at least one scale factor is required");
    }
    ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = paper::strategy_names();
    grid.parameters.clear();
    char buf[64];
    for (const double scale : scales) {
        if (scale <= 0.0) {
            throw InvalidArgument("mttr_sensitivity: scale factors must be positive");
        }
        ParameterSet set;
        std::snprintf(buf, sizeof buf, "repair-rate-%.2fx", scale);
        set.name = buf;
        // Scaling every repair *rate* by `scale` divides every MTTR by it.
        set.params.pump_mttr /= scale;
        set.params.softener_mttr /= scale;
        set.params.sandfilter_mttr /= scale;
        set.params.reservoir_mttr /= scale;
        grid.parameters.push_back(std::move(set));
    }
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::SteadyStateCost),
    };
    return grid;
}

void render_mttr_sensitivity(const SweepReport& report, const ScenarioGrid& grid,
                             std::ostream& os) {
    const auto render = [&](MeasureKind kind, const char* title, const char* format) {
        os << title;
        std::vector<std::string> header{"Line/Strategy"};
        for (const auto& set : grid.parameters) header.push_back(set.name);
        Table table(std::move(header));
        char buf[64];
        for (const int line : grid.lines) {
            for (const auto& name : grid.strategies) {
                std::string label = "L";
                label += std::to_string(line) + " " + name;
                std::vector<std::string> cells{std::move(label)};
                for (std::size_t p = 0; p < grid.parameters.size(); ++p) {
                    const auto& cell = find_or_throw(report, line, name, kind,
                                                     DisasterKind::None, 1.0, {}, p);
                    std::snprintf(buf, sizeof buf, format, cell.values.front());
                    cells.emplace_back(buf);
                }
                table.add_row(std::move(cells));
            }
        }
        table.print(os);
    };
    render(MeasureKind::Availability,
           "=== MTTR sensitivity: availability vs repair-rate scale ===\n\n", "%.7f");
    os << "\n";
    render(MeasureKind::SteadyStateCost,
           "=== MTTR sensitivity: long-run cost rate vs repair-rate scale ===\n\n",
           "%.4f");
}

ScenarioGrid pump_scaling(std::size_t max_extra_pumps) {
    ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = {"FRF-1"};
    grid.variants = {individual_variant()};
    grid.scales.clear();
    for (std::size_t extra = 0; extra <= max_extra_pumps; ++extra) {
        ScaleSpec scale;
        if (extra > 0) scale.name = "pumps+" + std::to_string(extra);
        scale.extra_pumps = extra;
        grid.scales.push_back(std::move(scale));
    }
    grid.measures = {measure_spec(MeasureKind::StateSpace)};
    return grid;
}

void render_pump_scaling(const SweepReport& report, const ScenarioGrid& grid,
                         std::ostream& os) {
    os << "=== State-space scaling: spare pumps per line (individual encoding) ===\n\n";
    Table table({"Model", "Pumps", "Explored states", "Full states", "Reduction",
                 "Full transitions"});
    char buf[64];
    for (const int line : grid.lines) {
        // Paper configurations: line 1 has 4 pumps, line 2 has 3.
        const std::size_t base_pumps = line == 1 ? 4 : 3;
        for (const auto& scale : grid.scales) {
            const ScenarioResult* cell = nullptr;
            for (const auto& r : report.results) {
                if (r.item.line == line && r.item.scale.name == scale.name &&
                    r.item.measure.kind == MeasureKind::StateSpace) {
                    cell = &r;
                    break;
                }
            }
            if (cell == nullptr) {
                throw InvalidArgument("render_pump_scaling: missing cell line" +
                                      std::to_string(line) + " scale " + scale.name);
            }
            std::vector<std::string> cells;
            cells.emplace_back("line" + std::to_string(line) + " " +
                               cell->item.strategy + " (" + scale.name + ")");
            cells.emplace_back(std::to_string(base_pumps + scale.extra_pumps));
            cells.emplace_back(std::to_string(cell->model_explored_states));
            cells.emplace_back(std::to_string(cell->model_states));
            std::snprintf(buf, sizeof buf, "%.1fx",
                          cell->model_explored_states > 0
                              ? static_cast<double>(cell->model_states) /
                                    static_cast<double>(cell->model_explored_states)
                              : 1.0);
            cells.emplace_back(buf);
            cells.emplace_back(std::to_string(cell->model_transitions));
            table.add_row(std::move(cells));
        }
    }
    table.print(os);
    os << "\n(explored = the chain the engine actually built; full = exact count\n"
          " summed in closed form over the lumped states; they coincide when\n"
          " reduction is off)\n";
}

}  // namespace arcade::sweep::studies
