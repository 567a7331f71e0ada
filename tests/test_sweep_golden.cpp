// Golden comparisons for the sweep migration: every paper figure/table that
// example_paper_artefacts renders through a declarative ScenarioGrid must
// emit rows byte-identical to the hand-rolled measure loops the per-figure
// mains carried before the migration.  Each test renders the sweep report through
// sweep::paper::render_* and rebuilds the expected text with direct
// compile_line / *_series calls — the exact code shape of the pre-migration
// harness — in an independent session.
//
// Every identity runs twice, under ReductionPolicy::Off and ::Auto: the
// sweep side through RunnerOptions::reduction, the hand-rolled side through
// compile_line's reduction argument (or CompileOptions::reduction).  Both
// sides of each comparison dispatch through the same reduction, so the rows
// must stay byte-identical either way.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "arcade/measures.hpp"
#include "support/series.hpp"
#include "sweep/sweep.hpp"

namespace core = arcade::core;
namespace engine = arcade::engine;
namespace sweep = arcade::sweep;
namespace wt = arcade::watertree;

namespace {

using Renderer = void (*)(const sweep::SweepReport&, std::ostream&);

sweep::RunnerOptions runner_options(core::ReductionPolicy reduction) {
    sweep::RunnerOptions options;
    options.reduction = reduction;
    return options;
}

core::CompileOptions compile_options(core::ReductionPolicy reduction,
                                     core::Encoding encoding = core::Encoding::Individual) {
    core::CompileOptions options;
    options.encoding = encoding;
    options.reduction = reduction;
    return options;
}

/// Evaluates `grid` through the runner (its own session) and renders it.
std::string rendered_by_sweep(const sweep::ScenarioGrid& grid, Renderer render,
                              core::ReductionPolicy reduction) {
    engine::AnalysisSession session;
    sweep::SweepRunner runner(session, runner_options(reduction));
    const auto report = runner.run(grid);
    std::ostringstream os;
    render(report, os);
    return os.str();
}

std::string figure_text(const arcade::Figure& fig) {
    std::ostringstream os;
    fig.print(os);
    return os.str();
}

/// The hand-rolled shape shared by figs 4–11: compile each strategy's line
/// (session-cached, lumped), seed the disaster, walk one series per curve.
std::string handrolled_figure(int line, const std::vector<const char*>& strategies,
                              sweep::MeasureKind kind, double service_level,
                              const std::vector<double>& times, const std::string& title,
                              const std::string& x_label, const std::string& y_label,
                              core::ReductionPolicy reduction) {
    engine::AnalysisSession session;
    arcade::Figure fig(title, x_label, y_label);
    fig.set_times(times);
    for (const auto* name : strategies) {
        const auto model = wt::compile_line(session, line, wt::strategy(name),
                                            core::Encoding::Lumped, {}, /*with_repair=*/true,
                                            reduction);
        const auto disaster = line == 2 ? wt::disaster2() : wt::disaster1(model->model());
        switch (kind) {
            case sweep::MeasureKind::Survivability:
                fig.add_series(name, core::survivability_series(*model, disaster,
                                                                service_level, times));
                break;
            case sweep::MeasureKind::InstantaneousCost:
                fig.add_series(name,
                               core::instantaneous_cost_series(*model, disaster, times));
                break;
            case sweep::MeasureKind::AccumulatedCost:
                fig.add_series(name,
                               core::accumulated_cost_series(*model, disaster, times));
                break;
            default:
                ADD_FAILURE() << "unsupported hand-rolled measure";
        }
    }
    return figure_text(fig);
}

class SweepGolden : public ::testing::TestWithParam<core::ReductionPolicy> {
protected:
    [[nodiscard]] core::ReductionPolicy reduction() const { return GetParam(); }
};

}  // namespace

TEST_P(SweepGolden, Fig3ReliabilityRowsAreByteIdentical) {
    const auto times = arcade::time_grid(1000.0, 101);
    engine::AnalysisSession session;
    const auto lumped = compile_options(reduction(), core::Encoding::Lumped);
    const auto& ded = wt::strategy("DED");  // strategy irrelevant without repair
    const auto l1 = session.compile(core::without_repair(wt::line1(ded)), lumped);
    const auto l2 = session.compile(core::without_repair(wt::line2(ded)), lumped);

    arcade::Figure fig("Figure 3: reliability over time", "t in hours", "Probability (S)");
    fig.set_times(times);
    fig.add_series("Reliability_line1", core::reliability_series(*l1, times));
    fig.add_series("Reliability_line2", core::reliability_series(*l2, times));

    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig3(), sweep::paper::render_fig3,
                                reduction()),
              figure_text(fig));
}

TEST_P(SweepGolden, Fig4SurvivabilityRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig4(), sweep::paper::render_fig4,
                                reduction()),
              handrolled_figure(
                  1, {"DED", "FRF-1", "FRF-2"}, sweep::MeasureKind::Survivability,
                  1.0 / 3.0, arcade::time_grid(4.5, 91),
                  "Figure 4: survivability Line 1, Disaster 1, X1 (service >= 1/3)",
                  "t in hours", "Probability (S)", reduction()));
}

TEST_P(SweepGolden, Fig5SurvivabilityRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig5(), sweep::paper::render_fig5,
                                reduction()),
              handrolled_figure(
                  1, {"DED", "FRF-1", "FRF-2"}, sweep::MeasureKind::Survivability,
                  2.0 / 3.0, arcade::time_grid(4.5, 91),
                  "Figure 5: survivability Line 1, Disaster 1, X2 (service >= 2/3)",
                  "t in hours", "Probability (S)", reduction()));
}

TEST_P(SweepGolden, Fig6InstantaneousCostRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig6(), sweep::paper::render_fig6,
                                reduction()),
              handrolled_figure(1, {"DED", "FRF-1", "FRF-2"},
                                sweep::MeasureKind::InstantaneousCost, 1.0,
                                arcade::time_grid(4.5, 91),
                                "Figure 6: instantaneous cost Line 1, Disaster 1",
                                "t in hours", "Impuls Costs (I)", reduction()));
}

TEST_P(SweepGolden, Fig7AccumulatedCostRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig7(), sweep::paper::render_fig7,
                                reduction()),
              handrolled_figure(1, {"DED", "FRF-1", "FRF-2"},
                                sweep::MeasureKind::AccumulatedCost, 1.0,
                                arcade::time_grid(10.0, 101),
                                "Figure 7: accumulated cost Line 1, Disaster 1",
                                "t in hours", "Cumulative costs (I)", reduction()));
}

TEST_P(SweepGolden, Fig8SurvivabilityRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig8(), sweep::paper::render_fig8,
                                reduction()),
              handrolled_figure(
                  2, {"DED", "FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                  sweep::MeasureKind::Survivability, 1.0 / 3.0,
                  arcade::time_grid(100.0, 101),
                  "Figure 8: survivability Line 2, Disaster 2, X1 (service >= 1/3)",
                  "t in hours", "Probability (S)", reduction()));
}

TEST_P(SweepGolden, Fig9SurvivabilityRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig9(), sweep::paper::render_fig9,
                                reduction()),
              handrolled_figure(
                  2, {"DED", "FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                  sweep::MeasureKind::Survivability, 2.0 / 3.0,
                  arcade::time_grid(100.0, 101),
                  "Figure 9: survivability Line 2, Disaster 2, X3 (service >= 2/3)",
                  "t in hours", "Probability (S)", reduction()));
}

TEST_P(SweepGolden, Fig10InstantaneousCostRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig10(), sweep::paper::render_fig10,
                                reduction()),
              handrolled_figure(2, {"FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                                sweep::MeasureKind::InstantaneousCost, 1.0,
                                arcade::time_grid(50.0, 101),
                                "Figure 10: instantaneous cost Line 2, Disaster 2",
                                "t in hours", "Impuls costs (I)", reduction()));
}

TEST_P(SweepGolden, Fig11AccumulatedCostRowsAreByteIdentical) {
    EXPECT_EQ(rendered_by_sweep(sweep::paper::fig11(), sweep::paper::render_fig11,
                                reduction()),
              handrolled_figure(2, {"FFF-1", "FFF-2", "FRF-1", "FRF-2"},
                                sweep::MeasureKind::AccumulatedCost, 1.0,
                                arcade::time_grid(50.0, 101),
                                "Figure 11: accumulated cost Line 2, Disaster 2",
                                "t in hours", "Cumulative costs (I)", reduction()));
}

TEST_P(SweepGolden, Table1StateSpaceRowsAreByteIdentical) {
    // The pre-migration harness: per strategy, individual + lumped compiles
    // of both lines, rendered with the paper's values in parentheses.
    engine::AnalysisSession session;
    const auto lumped = compile_options(reduction(), core::Encoding::Lumped);
    const auto individual_options = compile_options(reduction());

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
    std::ostringstream expected;
    expected << "=== Table 1: state space for repair strategies ===\n";
    expected << "(paper values in parentheses; states must match exactly;\n"
                " FRF/FFF transition counts are PRISM-encoding artifacts in the\n"
                " paper — our encoding is policy-independent, see README.md,\n"
                " \"Differences from the paper\")\n\n";
    arcade::Table table({"Strategy", "L1 states", "L1 trans.", "L2 states", "L2 trans.",
                         "L1 lumped", "L2 lumped"});
    for (const auto& row : paper) {
        const auto& strat = wt::strategy(row.name);
        const auto l1 = session.compile(wt::line1(strat), individual_options);
        const auto l2 = session.compile(wt::line2(strat), individual_options);
        const auto l1_lumped = session.compile(wt::line1(strat), lumped);
        const auto l2_lumped = session.compile(wt::line2(strat), lumped);
        table.add_row({row.name,
                       std::to_string(l1->state_count()) + " (" + std::to_string(row.s1) + ")",
                       std::to_string(l1->transition_count()) + " (" + std::to_string(row.t1) +
                           ")",
                       std::to_string(l2->state_count()) + " (" + std::to_string(row.s2) + ")",
                       std::to_string(l2->transition_count()) + " (" + std::to_string(row.t2) +
                           ")",
                       std::to_string(l1_lumped->state_count()),
                       std::to_string(l2_lumped->state_count())});
    }
    table.print(expected);

    EXPECT_EQ(rendered_by_sweep(sweep::paper::table1(), sweep::paper::render_table1,
                                reduction()),
              expected.str());
}

TEST_P(SweepGolden, AblationEncodingsRowsAreByteIdentical) {
    // The pre-migration harness: per line and strategy, session-cached
    // individual + lumped compiles, availability off each, hand-formatted.
    engine::AnalysisSession session;
    const auto lumped = compile_options(reduction(), core::Encoding::Lumped);
    const auto individual_options = compile_options(reduction());
    std::ostringstream expected;
    expected << "=== Ablation: individual vs lumped encoding ===\n\n";
    arcade::Table table({"Model", "Indiv. states", "Lumped states", "Reduction",
                         "Indiv. avail", "Lumped avail", "|diff|"});
    char buf[64];
    for (const auto* line : {"line1", "line2"}) {
        for (const auto* name : {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
            const auto model = std::string(line) == "line1"
                                   ? wt::line1(wt::strategy(name))
                                   : wt::line2(wt::strategy(name));
            const auto individual = session.compile(model, individual_options);
            const auto lumped_model = session.compile(model, lumped);
            const double ai = core::availability(session, individual);
            const double al = core::availability(session, lumped_model);
            std::vector<std::string> cells;
            cells.emplace_back(std::string(line) + " " + name);
            cells.emplace_back(std::to_string(individual->state_count()));
            cells.emplace_back(std::to_string(lumped_model->state_count()));
            std::snprintf(buf, sizeof buf, "%.1fx",
                          static_cast<double>(individual->state_count()) /
                              static_cast<double>(lumped_model->state_count()));
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
    table.print(expected);
    expected << "\n(measures agree to solver precision; the lumped encoding is the\n"
                " 'drastic reduction' the paper's conclusion anticipates)\n";

    engine::AnalysisSession sweep_session;
    sweep::SweepRunner runner(sweep_session, runner_options(reduction()));
    const auto report = runner.run(sweep::studies::ablation_encodings());
    std::ostringstream actual;
    sweep::studies::render_ablation_encodings(report, actual);
    EXPECT_EQ(actual.str(), expected.str());
}

TEST_P(SweepGolden, AblationPreemptionRowsAreByteIdentical) {
    // The pre-migration harness: lumped line-2 compiles of each strategy
    // and its preemptive twin, availability + survivability to full
    // service at 10 h after Disaster 2, plus the individual-encoding
    // state-count footnote.
    engine::AnalysisSession session;
    const auto lumped = compile_options(reduction(), core::Encoding::Lumped);
    const auto individual_options = compile_options(reduction());
    const auto compile_variant = [&](const char* policy_name, bool preemptive) {
        auto strat = wt::strategy(policy_name);
        strat.preemptive = preemptive;
        strat.name += preemptive ? "-pre" : "";
        return session.compile(wt::line2(strat), lumped);
    };
    std::ostringstream expected;
    expected << "=== Ablation: non-preemptive (paper) vs preemptive scheduling ===\n\n";
    arcade::Table table({"Strategy", "Avail (non-pre)", "Avail (preempt)",
                         "Surv@10h X4 (non-pre)", "Surv@10h X4 (preempt)"});
    const auto disaster = wt::disaster2();
    char buf[64];
    for (const auto* name : {"FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
        const auto np = compile_variant(name, false);
        const auto pre = compile_variant(name, true);
        std::vector<std::string> cells;
        cells.emplace_back(name);
        std::snprintf(buf, sizeof buf, "%.7f", core::availability(session, np));
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.7f", core::availability(session, pre));
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.5f", core::survivability(*np, disaster, 1.0, 10.0));
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.5f",
                      core::survivability(*pre, disaster, 1.0, 10.0));
        cells.emplace_back(buf);
        table.add_row(std::move(cells));
    }
    table.print(expected);
    expected << "\n(state spaces also differ: preemption needs no tracked in-repair\n"
                " slot, so the individual encoding shrinks from 8129 states to "
             << [&] {
                    auto strat = wt::strategy("FRF-1");
                    strat.preemptive = true;
                    strat.name += "-pre";
                    return session.compile(wt::line2(strat), individual_options)
                        ->state_count();
                }()
             << ")\n";

    engine::AnalysisSession sweep_session;
    sweep::SweepRunner runner(sweep_session, runner_options(reduction()));
    const auto report = runner.run(sweep::studies::ablation_preemption());
    const auto sizes = runner.run(sweep::studies::ablation_preemption_sizes());
    std::ostringstream actual;
    sweep::studies::render_ablation_preemption(report, sizes, actual);
    EXPECT_EQ(actual.str(), expected.str());
}

TEST_P(SweepGolden, Table2AvailabilityRowsAreByteIdentical) {
    engine::AnalysisSession session;
    const auto lumped = compile_options(reduction(), core::Encoding::Lumped);

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
    std::ostringstream expected;
    expected << "=== Table 2: availability for repair strategies ===\n";
    expected << "(paper values in parentheses; DED matches to 1e-7, two-crew\n"
                " rows to ~1e-4; the paper's one-crew digits carry solver noise —\n"
                " its own FFF-2 line-2 exceeds DED, which is semantically\n"
                " impossible.  See README.md, \"Differences from the paper\")\n\n";
    arcade::Table table({"Strategy", "Line 1 (paper)", "Line 2 (paper)", "Combined (paper)"});
    char buf[128];
    for (const auto& row : paper) {
        const auto& strat = wt::strategy(row.name);
        const double a1 =
            core::availability(session, session.compile(wt::line1(strat), lumped));
        const double a2 =
            core::availability(session, session.compile(wt::line2(strat), lumped));
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
    table.print(expected);

    EXPECT_EQ(rendered_by_sweep(sweep::paper::table2(), sweep::paper::render_table2,
                                reduction()),
              expected.str());
}

INSTANTIATE_TEST_SUITE_P(Reduction, SweepGolden,
                         ::testing::Values(core::ReductionPolicy::Off,
                                           core::ReductionPolicy::Auto),
                         [](const ::testing::TestParamInfo<core::ReductionPolicy>& info) {
                             return info.param == core::ReductionPolicy::Auto ? "Auto" : "Off";
                         });
