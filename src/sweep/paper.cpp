#include "sweep/paper.hpp"

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "arcade/measures.hpp"
#include "support/errors.hpp"
#include "support/series.hpp"
#include "watertree/properties.hpp"

namespace arcade::sweep::paper {

namespace {

constexpr double kX1 = 1.0 / 3.0;
constexpr double kX2 = 2.0 / 3.0;  // line 2's X3 is the same service level

/// A grid over one set of strategies with a single measure (the shape of
/// every figure).
ScenarioGrid figure_grid(std::vector<int> lines, std::vector<std::string> strategies,
                         MeasureSpec measure) {
    ScenarioGrid grid;
    grid.lines = std::move(lines);
    grid.strategies = std::move(strategies);
    grid.measures = {std::move(measure)};
    return grid;
}

/// Renders a figure whose curves are the report's results in grid order,
/// one per strategy (or per line for fig 3).
void render_series_figure(const SweepReport& report, const std::string& title,
                          const std::string& x_label, const std::string& y_label,
                          bool name_by_line, std::ostream& os) {
    if (report.results.empty()) {
        throw InvalidArgument("render: empty sweep report for '" + title + "'");
    }
    Figure fig(title, x_label, y_label);
    fig.set_times(report.results.front().item.measure.times);
    for (const auto& r : report.results) {
        fig.add_series(name_by_line ? "Reliability_line" + std::to_string(r.item.line)
                                    : r.item.strategy,
                       r.values);
    }
    fig.print(os);
}

}  // namespace

const ScenarioResult& find_or_throw(const SweepReport& report, int line,
                                    const std::string& strategy, MeasureKind kind,
                                    DisasterKind disaster, double service_level,
                                    const std::string& variant,
                                    std::size_t parameter_index) {
    const auto* r = find(report, line, strategy, kind, disaster, service_level, variant,
                         parameter_index);
    if (r == nullptr) {
        throw InvalidArgument(
            "render: missing " + to_string(kind) + " cell for line " +
            std::to_string(line) + ", strategy " + strategy +
            (variant.empty() ? std::string() : ", variant " + variant) +
            (parameter_index > 0
                 ? ", parameter set " + std::to_string(parameter_index)
                 : std::string()));
    }
    return *r;
}

std::vector<std::string> strategy_names() {
    std::vector<std::string> names;
    for (const auto& s : watertree::paper_strategies()) names.push_back(s.name);
    return names;
}

const ScenarioResult* find(const SweepReport& report, int line,
                           const std::string& strategy, MeasureKind kind,
                           DisasterKind disaster, double service_level,
                           const std::string& variant, std::size_t parameter_index) {
    for (const auto& r : report.results) {
        const auto& m = r.item.measure;
        if (r.item.line == line && r.item.strategy == strategy && m.kind == kind &&
            m.disaster == disaster && m.service_level == service_level &&
            r.item.parameter_index == parameter_index &&
            (variant.empty() || r.item.variant.name == variant)) {
            return &r;
        }
    }
    return nullptr;
}

ScenarioGrid fig3() {
    return figure_grid({1, 2}, {"DED"},  // strategy irrelevant without repair
                       measure_spec(MeasureKind::Reliability, DisasterKind::None,
                                    1.0, time_grid(1000.0, 101)));
}

ScenarioGrid fig4() {
    return figure_grid({1}, {"DED", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::Survivability, DisasterKind::AllPumps,
                                    kX1, time_grid(4.5, 91)));
}

ScenarioGrid fig5() {
    return figure_grid({1}, {"DED", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::Survivability, DisasterKind::AllPumps,
                                    kX2, time_grid(4.5, 91)));
}

ScenarioGrid fig6() {
    return figure_grid({1}, {"DED", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::InstantaneousCost, DisasterKind::AllPumps,
                                    1.0, time_grid(4.5, 91)));
}

ScenarioGrid fig7() {
    return figure_grid({1}, {"DED", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::AccumulatedCost, DisasterKind::AllPumps,
                                    1.0, time_grid(10.0, 101)));
}

ScenarioGrid fig8() {
    return figure_grid({2}, {"DED", "FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::Survivability, DisasterKind::Mixed,
                                    kX1, time_grid(100.0, 101)));
}

ScenarioGrid fig9() {
    return figure_grid({2}, {"DED", "FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::Survivability, DisasterKind::Mixed,
                                    kX2, time_grid(100.0, 101)));
}

ScenarioGrid fig10() {
    return figure_grid({2}, {"FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::InstantaneousCost, DisasterKind::Mixed,
                                    1.0, time_grid(50.0, 101)));
}

ScenarioGrid fig11() {
    return figure_grid({2}, {"FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                       measure_spec(MeasureKind::AccumulatedCost, DisasterKind::Mixed,
                                    1.0, time_grid(50.0, 101)));
}

ScenarioGrid table1() {
    ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = strategy_names();
    // The paper's (individual) encoding next to the lumped comparison.
    grid.variants = {individual_variant(), lumped_variant()};
    grid.measures = {measure_spec(MeasureKind::StateSpace)};
    return grid;
}

ScenarioGrid table2() {
    ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = strategy_names();
    grid.measures = {measure_spec(MeasureKind::Availability)};
    return grid;
}

ScenarioGrid everything() {
    const auto short_grid = time_grid(4.5, 91);    // Figs 4–6
    const auto cost_grid = time_grid(10.0, 101);   // Fig 7
    const auto long_grid = time_grid(100.0, 101);  // Figs 8–9

    ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = strategy_names();
    grid.measures = {
        measure_spec(MeasureKind::Availability),  // Table 2
        measure_spec(MeasureKind::Survivability, DisasterKind::AllPumps, kX1,
                     short_grid),  // Fig 4
        measure_spec(MeasureKind::Survivability, DisasterKind::AllPumps, kX2,
                     short_grid),  // Fig 5
        measure_spec(MeasureKind::InstantaneousCost, DisasterKind::AllPumps, 1.0,
                     short_grid),  // Fig 6
        measure_spec(MeasureKind::AccumulatedCost, DisasterKind::AllPumps, 1.0,
                     cost_grid),  // Fig 7
        measure_spec(MeasureKind::Survivability, DisasterKind::Mixed, kX1, long_grid),  // Fig 8
        measure_spec(MeasureKind::Survivability, DisasterKind::Mixed, kX2, long_grid),  // Fig 9
    };
    return grid;
}

ScenarioGrid properties() {
    const auto short_grid = time_grid(4.5, 91);    // Figs 4–6
    const auto cost_grid = time_grid(10.0, 101);   // Fig 7
    const auto long_grid = time_grid(100.0, 101);  // Figs 8–9
    constexpr double kInstCostTime = 4.5;    // Fig 6 horizon
    constexpr double kAccCostHorizon = 10.0;  // Fig 7 horizon

    namespace wp = watertree::properties;
    const auto property = [](std::string formula, DisasterKind disaster,
                             std::vector<double> times) {
        MeasureSpec m;
        m.kind = MeasureKind::Property;
        m.disaster = disaster;
        m.times = std::move(times);
        m.property = std::move(formula);
        return m;
    };

    ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = strategy_names();
    grid.measures = {
        property(wp::availability_formula(), DisasterKind::None, {}),  // Table 2
        property(wp::survivability_formula(kX1, 4.5), DisasterKind::AllPumps,
                 short_grid),  // Fig 4
        property(wp::survivability_formula(kX2, 4.5), DisasterKind::AllPumps,
                 short_grid),  // Fig 5
        property(wp::instantaneous_cost_formula(kInstCostTime), DisasterKind::AllPumps,
                 short_grid),  // Fig 6
        property(wp::accumulated_cost_formula(kAccCostHorizon), DisasterKind::AllPumps,
                 cost_grid),  // Fig 7
        property(wp::survivability_formula(kX1, 100.0), DisasterKind::Mixed,
                 long_grid),  // Fig 8
        property(wp::survivability_formula(kX2, 100.0), DisasterKind::Mixed,
                 long_grid),  // Fig 9
    };
    return grid;
}

const ScenarioResult* find_property(const SweepReport& report, int line,
                                    const std::string& strategy,
                                    const std::string& formula) {
    for (const auto& r : report.results) {
        if (r.item.line == line && r.item.strategy == strategy &&
            r.item.measure.kind == MeasureKind::Property &&
            r.item.measure.property == formula) {
            return &r;
        }
    }
    return nullptr;
}

void render_properties(const SweepReport& report, const ScenarioGrid& grid,
                       std::ostream& os) {
    namespace wp = watertree::properties;
    os << "=== Property sweep: the paper's measures as CSL/CSRL formulas ===\n\n";

    const std::string availability = wp::availability_formula();
    Table table({"Strategy", "Line 1", "Line 2", "Formula"});
    char buf[64];
    for (const auto& name : grid.strategies) {
        const auto* a1 = find_property(report, 1, name, availability);
        const auto* a2 = find_property(report, 2, name, availability);
        if (a1 == nullptr || a2 == nullptr) {
            throw InvalidArgument("render: missing availability property cell for " +
                                  name);
        }
        std::vector<std::string> cells{name};
        std::snprintf(buf, sizeof buf, "%.7f", a1->values.front());
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.7f", a2->values.front());
        cells.emplace_back(buf);
        cells.push_back(availability);
        table.add_row(std::move(cells));
    }
    table.print(os);

    os << "\n";
    const std::string survivability = wp::survivability_formula(kX1, 100.0);
    Figure fig("Survivability as " + survivability + " (Line 2, Disaster 2)",
               "t in hours", "Probability (S)");
    bool have_times = false;
    for (const auto& name : grid.strategies) {
        const auto* r = find_property(report, 2, name, survivability);
        if (r == nullptr) {
            throw InvalidArgument("render: missing survivability property cell for " +
                                  name);
        }
        if (!have_times) {
            fig.set_times(r->item.measure.times);
            have_times = true;
        }
        fig.add_series(name, r->values);
    }
    fig.print(os);
}

void render_fig3(const SweepReport& report, std::ostream& os) {
    render_series_figure(report, "Figure 3: reliability over time", "t in hours",
                         "Probability (S)", /*name_by_line=*/true, os);
}

void render_fig4(const SweepReport& report, std::ostream& os) {
    render_series_figure(report,
                         "Figure 4: survivability Line 1, Disaster 1, X1 (service >= 1/3)",
                         "t in hours", "Probability (S)", false, os);
}

void render_fig5(const SweepReport& report, std::ostream& os) {
    render_series_figure(report,
                         "Figure 5: survivability Line 1, Disaster 1, X2 (service >= 2/3)",
                         "t in hours", "Probability (S)", false, os);
}

void render_fig6(const SweepReport& report, std::ostream& os) {
    render_series_figure(report, "Figure 6: instantaneous cost Line 1, Disaster 1",
                         "t in hours", "Impuls Costs (I)", false, os);
}

void render_fig7(const SweepReport& report, std::ostream& os) {
    render_series_figure(report, "Figure 7: accumulated cost Line 1, Disaster 1",
                         "t in hours", "Cumulative costs (I)", false, os);
}

void render_fig8(const SweepReport& report, std::ostream& os) {
    render_series_figure(report,
                         "Figure 8: survivability Line 2, Disaster 2, X1 (service >= 1/3)",
                         "t in hours", "Probability (S)", false, os);
}

void render_fig9(const SweepReport& report, std::ostream& os) {
    render_series_figure(report,
                         "Figure 9: survivability Line 2, Disaster 2, X3 (service >= 2/3)",
                         "t in hours", "Probability (S)", false, os);
}

void render_fig10(const SweepReport& report, std::ostream& os) {
    render_series_figure(report, "Figure 10: instantaneous cost Line 2, Disaster 2",
                         "t in hours", "Impuls costs (I)", false, os);
}

void render_fig11(const SweepReport& report, std::ostream& os) {
    render_series_figure(report, "Figure 11: accumulated cost Line 2, Disaster 2",
                         "t in hours", "Cumulative costs (I)", false, os);
}

void render_table1(const SweepReport& report, std::ostream& os) {
    os << "=== Table 1: state space for repair strategies ===\n";
    os << "(paper values in parentheses; states must match exactly;\n"
          " FRF/FFF transition counts are PRISM-encoding artifacts in the\n"
          " paper — our encoding is policy-independent, see DESIGN.md)\n\n";

    struct PaperRow {
        const char* name;
        std::size_t s1, t1, s2, t2;
    };
    const PaperRow paper[] = {
        {"DED", 2048, 22528, 512, 4606},
        {"FRF-1", 111809, 388478, 8129, 25838},
        {"FRF-2", 111809, 500275, 8129, 33957},
        {"FFF-1", 111809, 367106, 8129, 23354},
        {"FFF-2", 111809, 478903, 8129, 31473},
    };

    Table table({"Strategy", "L1 states", "L1 trans.", "L2 states", "L2 trans.",
                 "L1 lumped", "L2 lumped"});
    for (const auto& row : paper) {
        const auto& l1 =
            find_or_throw(report, 1, row.name, MeasureKind::StateSpace,
                          DisasterKind::None, 1.0, "individual");
        const auto& l2 =
            find_or_throw(report, 2, row.name, MeasureKind::StateSpace,
                          DisasterKind::None, 1.0, "individual");
        const auto& l1_lumped =
            find_or_throw(report, 1, row.name, MeasureKind::StateSpace,
                          DisasterKind::None, 1.0, "lumped");
        const auto& l2_lumped =
            find_or_throw(report, 2, row.name, MeasureKind::StateSpace,
                          DisasterKind::None, 1.0, "lumped");
        table.add_row({row.name,
                       std::to_string(l1.model_states) + " (" + std::to_string(row.s1) + ")",
                       std::to_string(l1.model_transitions) + " (" + std::to_string(row.t1) +
                           ")",
                       std::to_string(l2.model_states) + " (" + std::to_string(row.s2) + ")",
                       std::to_string(l2.model_transitions) + " (" + std::to_string(row.t2) +
                           ")",
                       std::to_string(l1_lumped.model_states),
                       std::to_string(l2_lumped.model_states)});
    }
    table.print(os);
}

void render_table2(const SweepReport& report, std::ostream& os) {
    os << "=== Table 2: availability for repair strategies ===\n";
    os << "(paper values in parentheses; DED matches to 1e-7, two-crew\n"
          " rows to ~1e-4; the paper's one-crew digits carry solver noise —\n"
          " its own FFF-2 line-2 exceeds DED, which is semantically\n"
          " impossible.  See EXPERIMENTS.md.)\n\n";

    struct PaperRow {
        const char* name;
        double line1, line2, combined;
    };
    const PaperRow paper[] = {
        {"DED", 0.7442018, 0.8186317, 0.9536063},
        {"FRF-1", 0.7225597, 0.8101931, 0.9473399},
        {"FRF-2", 0.7439214, 0.8186312, 0.9535554},
        {"FFF-1", 0.7273540, 0.8120302, 0.9487508},
        {"FFF-2", 0.7440022, 0.8186662, 0.9535790},
    };

    Table table({"Strategy", "Line 1 (paper)", "Line 2 (paper)", "Combined (paper)"});
    char buf[128];
    for (const auto& row : paper) {
        const double a1 =
            find_or_throw(report, 1, row.name, MeasureKind::Availability).values.front();
        const double a2 =
            find_or_throw(report, 2, row.name, MeasureKind::Availability).values.front();
        const double combined = core::combined_availability(a1, a2);
        std::vector<std::string> cells;
        cells.emplace_back(row.name);
        std::snprintf(buf, sizeof buf, "%.7f (%.7f)", a1, row.line1);
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.7f (%.7f)", a2, row.line2);
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.7f (%.7f)", combined, row.combined);
        cells.emplace_back(buf);
        table.add_row(std::move(cells));
    }
    table.print(os);
}

}  // namespace arcade::sweep::paper
