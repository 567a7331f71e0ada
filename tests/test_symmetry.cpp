// On-the-fly symmetry reduction: the StateSymmetry canonicalisation kernel,
// the compiler's orbit detection over interchangeable components, the
// module-level symmetry analysis, and the policy threading through session,
// sweep and scaling study.
//
//  * canonicalize sorts instance tuples and orbit_size counts permutations
//    modulo repeated tuples;
//  * the individual-encoding watertree lines explored as quotients land
//    EXACTLY on the paper's hand-lumped Table 1 sizes (449 / 257), and the
//    full-chain counts recovered from orbit sizes equal the actually
//    explored full chains (111809 / 8129);
//  * every measure agrees between the quotient and the full chain to solver
//    precision, on both encodings, with and without post-hoc lumping;
//  * module systems with interchangeable instances are detected, asymmetric
//    rates or asymmetric labels block the (conservative) detection;
//  * the sweep's pump-scaling axis reports quotient vs full-chain sizes,
//    with a >= 10x reduction at the paper's own 4-pump line;
//  * the whole paper evaluation on the individual encoding explored as
//    symmetry quotients is bitwise identical to the hand-lumped encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "ctmc/steady_state.hpp"
#include "engine/session.hpp"
#include "engine/symmetry.hpp"
#include "expr/expr.hpp"
#include "modules/explorer.hpp"
#include "modules/symmetry.hpp"
#include "sweep/sweep.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace engine = arcade::engine;
namespace expr = arcade::expr;
namespace modules = arcade::modules;
namespace sweep = arcade::sweep;
namespace wt = arcade::watertree;

namespace {

expr::Expr E(const std::string& text) { return expr::parse_expression(text); }

/// Two-state fail/repair module owning one variable (the replicated-pump
/// shape of the watertree translation).
modules::Module pump_module(const std::string& var, double fail, double repair) {
    modules::Module m;
    m.name = "m_" + var;
    m.variables.push_back({var, modules::VarType::Int, 0, 1, 0});
    m.commands.push_back({"", E(var + "=0"), {{expr::Expr::real(fail), {{var, E("1")}}}}});
    m.commands.push_back(
        {"", E(var + "=1"), {{expr::Expr::real(repair), {{var, E("0")}}}}});
    return m;
}

engine::StateSymmetry three_pairs() {
    // One orbit of three instances, each an adjacent (status, rank) pair
    // over a 6-field layout.
    engine::SymmetryOrbit orbit;
    orbit.instances = {{0, 1}, {2, 3}, {4, 5}};
    return engine::StateSymmetry({orbit});
}

}  // namespace

TEST(StateSymmetry, CanonicalizeSortsInstanceTuplesLexicographically) {
    const auto symmetry = three_pairs();
    ASSERT_FALSE(symmetry.trivial());
    EXPECT_EQ(symmetry.orbit_count(), 1u);

    std::vector<std::int64_t> values{2, 0, 1, 9, 1, 3};
    symmetry.canonicalize(values);
    EXPECT_EQ(values, (std::vector<std::int64_t>{1, 3, 1, 9, 2, 0}));
    EXPECT_TRUE(symmetry.is_canonical(values));

    // Already sorted stays put.
    std::vector<std::int64_t> sorted{0, 0, 0, 1, 1, 0};
    const auto copy = sorted;
    symmetry.canonicalize(sorted);
    EXPECT_EQ(sorted, copy);

    // Fields outside every orbit are untouched (orbit over fields 0..3 of 5).
    engine::SymmetryOrbit partial;
    partial.instances = {{0, 1}, {2, 3}};
    const engine::StateSymmetry sym2({partial});
    std::vector<std::int64_t> v{7, 7, 1, 2, 42};
    sym2.canonicalize(v);
    EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2, 7, 7, 42}));
}

TEST(StateSymmetry, OrbitSizeCountsPermutationsModuloRepeats) {
    const auto symmetry = three_pairs();
    // Three distinct tuples: 3! orbits members.
    EXPECT_DOUBLE_EQ(symmetry.orbit_size(std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}),
                     6.0);
    // Two identical tuples: 3!/2!.
    EXPECT_DOUBLE_EQ(symmetry.orbit_size(std::vector<std::int64_t>{0, 1, 0, 1, 4, 5}),
                     3.0);
    // All identical: a fixed point of every permutation.
    EXPECT_DOUBLE_EQ(symmetry.orbit_size(std::vector<std::int64_t>{0, 1, 0, 1, 0, 1}),
                     1.0);
}

TEST(StateSymmetry, TrivialWithoutTwoInstances) {
    EXPECT_TRUE(engine::StateSymmetry().trivial());
    engine::SymmetryOrbit lone;
    lone.instances = {{0, 1}};
    EXPECT_TRUE(engine::StateSymmetry({lone}).trivial());
}

TEST(CompilerSymmetry, QuotientLandsOnHandLumpedTable1Sizes) {
    core::CompileOptions quotient_options;
    quotient_options.encoding = core::Encoding::Individual;
    quotient_options.symmetry = core::SymmetryPolicy::Auto;

    const auto l1 = core::compile(wt::line1(wt::strategy("FRF-1")), quotient_options);
    ASSERT_TRUE(l1.symmetry_reduced());
    // The quotient over interchangeable components is exactly the paper's
    // hand-lumped Table 1 size, and the full-chain count is recovered
    // exactly from orbit sizes without exploring it.
    EXPECT_EQ(l1.state_count(), 449u);
    EXPECT_DOUBLE_EQ(l1.symmetry_full_states(), 111809.0);
    EXPECT_GE(l1.symmetry_ratio(), 10.0);  // 249x at the paper's 4 pumps

    const auto l2 = core::compile(wt::line2(wt::strategy("FRF-1")), quotient_options);
    ASSERT_TRUE(l2.symmetry_reduced());
    EXPECT_EQ(l2.state_count(), 257u);
    EXPECT_DOUBLE_EQ(l2.symmetry_full_states(), 8129.0);

    // Off is the seed behaviour: the full chain, with full_states falling
    // back to the explored count.
    core::CompileOptions full_options;
    full_options.encoding = core::Encoding::Individual;
    full_options.symmetry = core::SymmetryPolicy::Off;
    const auto full = core::compile(wt::line2(wt::strategy("FRF-1")), full_options);
    EXPECT_FALSE(full.symmetry_reduced());
    EXPECT_EQ(full.state_count(), 8129u);
    EXPECT_DOUBLE_EQ(full.symmetry_full_states(), 8129.0);
    EXPECT_DOUBLE_EQ(full.symmetry_ratio(), 1.0);

    // The lumped encoding already aggregates the interchangeable copies, so
    // there is nothing left to permute.
    core::CompileOptions lumped_options;
    lumped_options.encoding = core::Encoding::Lumped;
    lumped_options.symmetry = core::SymmetryPolicy::Auto;
    const auto lumped = core::compile(wt::line2(wt::strategy("FRF-1")), lumped_options);
    EXPECT_FALSE(lumped.symmetry_reduced());
}

TEST(CompilerSymmetry, MeasuresAgreeWithFullChainOnBothEncodings) {
    for (const auto encoding : {core::Encoding::Individual, core::Encoding::Lumped}) {
        for (const char* strategy : {"DED", "FRF-1", "FFF-2"}) {
            for (const int line : {1, 2}) {
                core::CompileOptions off;
                off.encoding = encoding;
                off.symmetry = core::SymmetryPolicy::Off;
                core::CompileOptions on = off;
                on.symmetry = core::SymmetryPolicy::Auto;

                const auto model = wt::line(line, wt::strategy(strategy));
                const auto full = core::compile(model, off);
                const auto quotient = core::compile(model, on);
                const std::string what = "line" + std::to_string(line) + " " + strategy;

                EXPECT_NEAR(core::availability(full), core::availability(quotient),
                            1e-9)
                    << what;
                EXPECT_NEAR(core::steady_state_cost(full),
                            core::steady_state_cost(quotient), 1e-9)
                    << what;
            }
        }
    }
}

TEST(CompilerSymmetry, DisasterMeasuresCanonicaliseTheLookup) {
    // Disaster states are looked up by encoded valuation; under symmetry the
    // valuation must canonicalise to its representative first or the lookup
    // misses.  Survivability after Disaster 1 exercises exactly that.
    core::CompileOptions off;
    off.encoding = core::Encoding::Individual;
    off.symmetry = core::SymmetryPolicy::Off;
    core::CompileOptions on = off;
    on.symmetry = core::SymmetryPolicy::Auto;

    const auto model = wt::line1(wt::strategy("FRF-1"));
    const auto full = core::compile(model, off);
    const auto quotient = core::compile(model, on);
    const auto disaster = wt::disaster1(model);
    for (const double t : {1.0, 10.0}) {
        EXPECT_NEAR(core::survivability(full, disaster, 1.0, t),
                    core::survivability(quotient, disaster, 1.0, t), 1e-9)
            << "t=" << t;
    }
}

TEST(CompilerSymmetry, ComposesWithPostHocLumping) {
    // Symmetry first, splitter-queue refinement on the residual: the doubly
    // reduced model still reproduces the full-chain availability, and the
    // session keys quotient and full variants apart.
    engine::AnalysisSession session;
    const auto strategy = wt::strategy("FRF-1");

    const auto full = wt::compile_line(session, 2, strategy, core::Encoding::Individual,
                                       {}, true, core::ReductionPolicy::Auto,
                                       core::SymmetryPolicy::Off);
    const auto reduced = wt::compile_line(session, 2, strategy,
                                          core::Encoding::Individual, {}, true,
                                          core::ReductionPolicy::Auto,
                                          core::SymmetryPolicy::Auto);
    ASSERT_NE(full.get(), reduced.get());  // distinct cache entries
    EXPECT_EQ(full->state_count(), 8129u);
    EXPECT_EQ(reduced->state_count(), 257u);
    EXPECT_NEAR(core::availability(session, full), core::availability(session, reduced),
                1e-9);

    const auto stats = session.stats();
    EXPECT_EQ(stats.symmetry_states_in, 8129u);
    EXPECT_EQ(stats.symmetry_states_out, 257u);
    EXPECT_GT(stats.symmetry_ratio(), 10.0);
}

TEST(CompilerSymmetry, ScaledLineExploresTinyQuotientOfHugeChain) {
    // The acceptance scenario: >= 4 pumps, quotient >= 10x smaller than the
    // recovered full-chain count.  Line 1 with one extra spare pump has 5
    // pumps; the full chain (562817 states) is never explored.
    core::CompileOptions options;
    options.encoding = core::Encoding::Individual;
    options.symmetry = core::SymmetryPolicy::Auto;
    const auto scaled =
        core::compile(wt::line1(wt::strategy("FRF-1"), {}, /*extra_pumps=*/1), options);
    ASSERT_TRUE(scaled.symmetry_reduced());
    EXPECT_EQ(scaled.state_count(), 545u);
    EXPECT_DOUBLE_EQ(scaled.symmetry_full_states(), 562817.0);
    EXPECT_GE(scaled.symmetry_ratio(), 10.0);
}

TEST(ModulesSymmetry, DetectsInterchangeableInstances) {
    modules::ModuleSystem sys;
    sys.modules.push_back(pump_module("x", 0.5, 2.0));
    sys.modules.push_back(pump_module("y", 0.5, 2.0));
    sys.modules.push_back(pump_module("z", 0.5, 2.0));
    // Symmetric idioms: a sum-threshold label and a sum-rate reward.
    sys.labels.emplace("mostly_up", E("x+y+z<=1"));
    sys.rewards.push_back({"failed", {{E("x+y+z>=1"), E("x+y+z")}}});

    const auto analysis = modules::analyze_symmetry(sys);
    ASSERT_EQ(analysis.orbits.size(), 1u);
    EXPECT_EQ(analysis.orbits[0].modules, (std::vector<std::size_t>{0, 1, 2}));

    modules::ExploreOptions off;
    off.symmetry = engine::SymmetryPolicy::Off;
    modules::ExploreOptions on;
    on.symmetry = engine::SymmetryPolicy::Auto;
    const auto full = modules::explore(sys, off);
    const auto quotient = modules::explore(sys, on);
    EXPECT_FALSE(full.symmetry_reduced);
    ASSERT_TRUE(quotient.symmetry_reduced);
    EXPECT_EQ(full.state_count(), 8u);   // 2^3
    EXPECT_EQ(quotient.state_count(), 4u);  // failed-count 0..3
    EXPECT_DOUBLE_EQ(quotient.symmetry_full_states, 8.0);

    // The quotient is an exact lumping: the label measure agrees.
    const double p_full = arcade::ctmc::steady_state_probability(
        full.chain, full.chain.label("mostly_up"));
    const double p_quot = arcade::ctmc::steady_state_probability(
        quotient.chain, quotient.chain.label("mostly_up"));
    EXPECT_NEAR(p_full, p_quot, 1e-12);

    // Thread-count invariance survives canonicalisation.
    modules::ExploreOptions threaded = on;
    threaded.threads = 4;
    const auto parallel = modules::explore(sys, threaded);
    EXPECT_EQ(parallel.state_count(), quotient.state_count());
    EXPECT_EQ(parallel.chain.transition_count(), quotient.chain.transition_count());
}

TEST(ModulesSymmetry, AsymmetricRateBlocksDetection) {
    modules::ModuleSystem sys;
    sys.modules.push_back(pump_module("x", 0.5, 2.0));
    sys.modules.push_back(pump_module("y", 0.5, 2.0));
    sys.modules.push_back(pump_module("z", 0.7, 2.0));  // different failure rate
    const auto analysis = modules::analyze_symmetry(sys);
    ASSERT_EQ(analysis.orbits.size(), 1u);  // x and y still interchange
    EXPECT_EQ(analysis.orbits[0].modules, (std::vector<std::size_t>{0, 1}));
}

TEST(ModulesSymmetry, AsymmetricLabelBlocksDetection) {
    modules::ModuleSystem sys;
    sys.modules.push_back(pump_module("x", 0.5, 2.0));
    sys.modules.push_back(pump_module("y", 0.5, 2.0));
    sys.labels.emplace("first_up", E("x=0"));  // singles x out
    EXPECT_TRUE(modules::analyze_symmetry(sys).trivial());

    // A symmetric label over the same modules is fine (the normal form
    // flattens and sorts the +-chain, so x+y = y+x).
    modules::ModuleSystem sym;
    sym.modules.push_back(pump_module("x", 0.5, 2.0));
    sym.modules.push_back(pump_module("y", 0.5, 2.0));
    sym.labels.emplace("any_up", E("x+y<=1"));
    EXPECT_FALSE(modules::analyze_symmetry(sym).trivial());
}

TEST(ModulesSymmetry, SynchronisingModulesStayOutOfTheFragment) {
    // Synchronisation couples instances; the conservative fragment excludes
    // them even when the programs look alike.
    modules::ModuleSystem sys;
    for (const char* var : {"x", "y"}) {
        modules::Module m = pump_module(var, 0.5, 2.0);
        m.commands.push_back(
            {"tick", E(std::string(var) + "=0"),
             {{expr::Expr::real(1.0), {{var, E(std::string(var))}}}}});
        sys.modules.push_back(std::move(m));
    }
    EXPECT_TRUE(modules::analyze_symmetry(sys).trivial());
}

TEST(SweepSymmetry, PumpScalingReportsQuotientAndFullStates) {
    engine::AnalysisSession session;
    const auto grid = sweep::studies::pump_scaling(/*max_extra_pumps=*/3);
    sweep::RunnerOptions options;
    options.symmetry = core::SymmetryPolicy::Auto;
    sweep::SweepRunner runner(session, options);
    const auto report = runner.run(grid);
    ASSERT_EQ(report.results.size(), 8u);  // 2 lines x 4 scales

    // Explored quotient states and the full count recovered from orbit
    // sizes, per (line, extra pumps).  The +3 full chains (23.7M / 1.0M
    // states) are never built.
    struct Expected {
        int line;
        std::size_t extra_pumps;
        std::size_t explored;
        double full;
    };
    const Expected expected[] = {
        {1, 0, 449, 111809},  {1, 1, 545, 562817},  {1, 2, 641, 3381185},
        {1, 3, 737, 23673089}, {2, 0, 257, 8129},    {2, 1, 327, 33511},
        {2, 2, 397, 168709},  {2, 3, 467, 1013567},
    };
    for (const auto& e : expected) {
        const auto it = std::find_if(
            report.results.begin(), report.results.end(), [&](const auto& r) {
                return r.item.line == e.line && r.item.scale.extra_pumps == e.extra_pumps;
            });
        ASSERT_NE(it, report.results.end()) << "line" << e.line << " +" << e.extra_pumps;
        EXPECT_EQ(it->item.strategy, "FRF-1");
        EXPECT_EQ(it->model_states, e.explored) << it->item.key();
        EXPECT_EQ(it->model_full_states, e.full) << it->item.key();
    }

    std::ostringstream table;
    sweep::studies::render_pump_scaling(report, grid, table);
    EXPECT_NE(table.str().find("Full states"), std::string::npos);
    EXPECT_NE(table.str().find("111809"), std::string::npos);  // line1 paper full
    EXPECT_NE(table.str().find("562817"), std::string::npos);  // line1 +1 pump full

    // The scaled grid carries the scale column; CSV rows stay sorted by
    // work-item index and self-describe their scale.
    std::ostringstream csv;
    sweep::write_csv(report, grid, csv);
    EXPECT_NE(csv.str().find(",scale"), std::string::npos);
    EXPECT_NE(csv.str().find("pumps+1"), std::string::npos);
}

TEST(SweepSymmetry, UnscaledGridsKeepTheirSchemaAndKeys) {
    // The default scale adds no column, no key suffix and no JSON field —
    // the paper grids stay byte-identical with symmetry off.
    const auto grid = sweep::paper::table1();
    const auto items = sweep::expand(grid);
    ASSERT_FALSE(items.empty());
    for (const auto& item : items) {
        EXPECT_EQ(item.key().find("/sc="), std::string::npos);
        EXPECT_EQ(item.model_key().find("/+"), std::string::npos);
    }

    engine::AnalysisSession session;
    sweep::RunnerOptions off;
    off.symmetry = core::SymmetryPolicy::Off;
    sweep::SweepRunner runner(session, off);
    const auto report = runner.run(grid);
    std::ostringstream csv;
    sweep::write_csv(report, grid, csv);
    EXPECT_NE(csv.str().find("line,strategy,parameters,variant,measure,disaster,"
                             "service_level,t,value\n"),
              std::string::npos);
    EXPECT_EQ(csv.str().find("scale"), std::string::npos);
}

TEST(SweepSymmetry, SymmetryCountersRideTheExports) {
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"FRF-1"};
    grid.variants = {sweep::individual_variant()};
    grid.measures = {sweep::measure_spec(sweep::MeasureKind::Availability)};
    sweep::RunnerOptions options;
    options.symmetry = core::SymmetryPolicy::Auto;
    sweep::SweepRunner runner(session, options);
    const auto report = runner.run(grid);
    EXPECT_EQ(report.stats.symmetry_states_in, 8129u);
    EXPECT_EQ(report.stats.symmetry_states_out, 257u);

    std::ostringstream json;
    sweep::write_json(report, grid, json);
    EXPECT_NE(json.str().find("\"symmetry_states_in\": 8129"), std::string::npos);
    EXPECT_NE(json.str().find("\"symmetry_ratio\""), std::string::npos);

    std::ostringstream csv;
    sweep::CsvOptions with_footer;
    with_footer.footer = true;
    sweep::write_csv(report, grid, csv, with_footer);
    EXPECT_NE(csv.str().find("symmetry_states_in=8129"), std::string::npos);
    EXPECT_NE(csv.str().find("symmetry_ratio="), std::string::npos);
}

TEST(SweepSymmetry, IndividualQuotientsRenderThePaperBitwiseLikeTheLumpedEncoding) {
    // The finding that keeps LumpedEncoder honest: every value of
    // sweep::paper::everything() computed on the individual encoding's
    // symmetry quotients carries the same bits as on the hand-lumped
    // encoding, over the same state counts.
    const auto run = [](const sweep::ModelVariant& variant, core::SymmetryPolicy symmetry) {
        auto grid = sweep::paper::everything();
        grid.variants = {variant};
        engine::AnalysisSession session;
        sweep::RunnerOptions options;
        options.reduction = core::ReductionPolicy::Off;
        options.symmetry = symmetry;
        sweep::SweepRunner runner(session, options);
        return runner.run(grid);
    };
    const auto quotient = run(sweep::individual_variant(), core::SymmetryPolicy::Auto);
    const auto lumped = run(sweep::lumped_variant(), core::SymmetryPolicy::Off);

    ASSERT_EQ(quotient.results.size(), lumped.results.size());
    std::size_t values = 0;
    for (std::size_t i = 0; i < quotient.results.size(); ++i) {
        const auto& q = quotient.results[i];
        const auto& l = lumped.results[i];
        ASSERT_EQ(q.item.index, l.item.index);
        EXPECT_EQ(q.model_states, l.model_states) << l.item.key();
        ASSERT_EQ(q.values.size(), l.values.size()) << l.item.key();
        for (std::size_t k = 0; k < q.values.size(); ++k) {
            EXPECT_EQ(std::memcmp(&q.values[k], &l.values[k], sizeof(double)), 0)
                << l.item.key() << " point " << k << ": " << q.values[k] << " vs "
                << l.values[k];
        }
        values += q.values.size();
    }
    EXPECT_EQ(quotient.results.size(), 60u);
    EXPECT_EQ(values, 4760u);
}
