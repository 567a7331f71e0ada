// On-the-fly symmetry reduction: the StateSymmetry canonicalisation kernel,
// the compiler's orbit detection over interchangeable components, and orbit
// exploration under ReductionPolicy::Auto through session, sweep and
// scaling study.
//
//  * canonicalize sorts instance tuples and orbit_size counts permutations
//    modulo repeated tuples;
//  * the individual-encoding watertree lines explored on their orbits land
//    EXACTLY on the paper's hand-lumped Table 1 sizes (449 / 257), and the
//    full-chain counts recovered from orbit sizes equal the actually
//    explored full chains (111809 / 8129);
//  * every measure agrees between the orbit chain and the full chain to
//    solver precision, on both encodings;
//  * the sweep's pump-scaling axis reports the exact explored and full-chain
//    sizes up to +3 pumps;
//  * the whole paper evaluation on the individual encoding under
//    ReductionPolicy::Auto is bitwise identical to the hand-lumped encoding;
//  * the SymmetryPolicy stub kept for the benchmark selects nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "engine/session.hpp"
#include "engine/symmetry.hpp"
#include "sweep/sweep.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace engine = arcade::engine;
namespace sweep = arcade::sweep;
namespace wt = arcade::watertree;

namespace {

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
    core::CompileOptions orbit_options;
    orbit_options.encoding = core::Encoding::Individual;
    orbit_options.reduction = core::ReductionPolicy::Auto;

    const auto l1 = core::compile(wt::line1(wt::strategy("FRF-1")), orbit_options);
    ASSERT_TRUE(l1.orbit_explored());
    // The orbit chain over interchangeable components is exactly the
    // paper's hand-lumped Table 1 size, and the full-chain count is
    // recovered exactly from orbit sizes without exploring it.
    EXPECT_EQ(l1.chain().state_count(), 449u);
    EXPECT_EQ(l1.state_count(), 111809u);
    EXPECT_EQ(l1.quotient().first->block_count(), 449u);

    const auto l2 = core::compile(wt::line2(wt::strategy("FRF-1")), orbit_options);
    ASSERT_TRUE(l2.orbit_explored());
    EXPECT_EQ(l2.chain().state_count(), 257u);
    EXPECT_EQ(l2.state_count(), 8129u);

    // Off is the seed behaviour: the full chain, explored and reported.
    core::CompileOptions full_options;
    full_options.encoding = core::Encoding::Individual;
    const auto full = core::compile(wt::line2(wt::strategy("FRF-1")), full_options);
    EXPECT_FALSE(full.orbit_explored());
    EXPECT_EQ(full.chain().state_count(), 8129u);
    EXPECT_EQ(full.state_count(), 8129u);
    EXPECT_EQ(full.transition_count(), l2.transition_count());

    // The lumped encoding already aggregates the interchangeable copies, so
    // there is nothing left to permute.
    core::CompileOptions lumped_options;
    lumped_options.encoding = core::Encoding::Lumped;
    lumped_options.reduction = core::ReductionPolicy::Auto;
    const auto lumped = core::compile(wt::line2(wt::strategy("FRF-1")), lumped_options);
    EXPECT_FALSE(lumped.orbit_explored());
}

TEST(CompilerSymmetry, MeasuresAgreeWithFullChainOnBothEncodings) {
    for (const auto encoding : {core::Encoding::Individual, core::Encoding::Lumped}) {
        for (const char* strategy : {"DED", "FRF-1", "FFF-2"}) {
            for (const int line : {1, 2}) {
                core::CompileOptions off;
                off.encoding = encoding;
                core::CompileOptions on = off;
                on.reduction = core::ReductionPolicy::Auto;

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
    // Disaster states are looked up by encoded valuation; on the orbit chain
    // the valuation must canonicalise to its representative first or the
    // lookup misses.  Survivability after Disaster 1 exercises exactly that.
    core::CompileOptions off;
    off.encoding = core::Encoding::Individual;
    core::CompileOptions on = off;
    on.reduction = core::ReductionPolicy::Auto;

    const auto model = wt::line1(wt::strategy("FRF-1"));
    const auto full = core::compile(model, off);
    const auto quotient = core::compile(model, on);
    ASSERT_TRUE(quotient.orbit_explored());
    const auto disaster = wt::disaster1(model);
    for (const double t : {1.0, 10.0}) {
        EXPECT_NEAR(core::survivability(full, disaster, 1.0, t),
                    core::survivability(quotient, disaster, 1.0, t), 1e-9)
            << "t=" << t;
    }
}

TEST(CompilerSymmetry, ComposesWithPostHocLumping) {
    // Orbits first, splitter-queue refinement on the orbit chain: the
    // reduced model still reproduces the full-chain availability, and the
    // session keys the reduced and full variants apart.
    engine::AnalysisSession session;
    const auto strategy = wt::strategy("FRF-1");

    const auto full = wt::compile_line(session, 2, strategy, core::Encoding::Individual,
                                       {}, true, core::ReductionPolicy::Off);
    const auto reduced = wt::compile_line(session, 2, strategy,
                                          core::Encoding::Individual, {}, true,
                                          core::ReductionPolicy::Auto);
    ASSERT_NE(full.get(), reduced.get());  // distinct cache entries
    EXPECT_EQ(full->chain().state_count(), 8129u);
    EXPECT_EQ(reduced->chain().state_count(), 257u);
    EXPECT_EQ(reduced->state_count(), 8129u);
    EXPECT_NEAR(core::availability(session, full), core::availability(session, reduced),
                1e-9);

    const auto stats = session.stats();
    EXPECT_EQ(stats.lump_states_in, 8129u);
    EXPECT_EQ(stats.lump_states_out, 257u);
    EXPECT_GT(stats.reduction_ratio(), 10.0);
}

TEST(CompilerSymmetry, ScaledLineExploresTinyQuotientOfHugeChain) {
    // The acceptance scenario: >= 4 pumps, orbit chain >= 10x smaller than
    // the recovered full-chain count.  Line 1 with one extra spare pump has
    // 5 pumps; the full chain (562817 states) is never explored.
    core::CompileOptions options;
    options.encoding = core::Encoding::Individual;
    options.reduction = core::ReductionPolicy::Auto;
    const auto scaled =
        core::compile(wt::line1(wt::strategy("FRF-1"), {}, /*extra_pumps=*/1), options);
    ASSERT_TRUE(scaled.orbit_explored());
    EXPECT_EQ(scaled.chain().state_count(), 545u);
    EXPECT_EQ(scaled.state_count(), 562817u);
    EXPECT_GE(static_cast<double>(scaled.state_count()) /
                  static_cast<double>(scaled.chain().state_count()),
              10.0);
}

TEST(SweepSymmetry, PumpScalingReportsQuotientAndFullStates) {
    engine::AnalysisSession session;
    const auto grid = sweep::studies::pump_scaling(/*max_extra_pumps=*/3);
    sweep::RunnerOptions options;
    options.reduction = core::ReductionPolicy::Auto;
    sweep::SweepRunner runner(session, options);
    const auto report = runner.run(grid);
    ASSERT_EQ(report.results.size(), 8u);  // 2 lines x 4 scales

    // Explored orbit-chain states and the full count recovered from orbit
    // sizes, per (line, extra pumps).  The +3 full chains (23.7M / 1.0M
    // states) are never built.
    struct Expected {
        int line;
        std::size_t extra_pumps;
        std::size_t explored;
        std::size_t full;
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
        EXPECT_EQ(it->model_explored_states, e.explored) << it->item.key();
        EXPECT_EQ(it->model_states, e.full) << it->item.key();
        ASSERT_EQ(it->values.size(), 1u);
        EXPECT_EQ(it->values.front(), static_cast<double>(e.full)) << it->item.key();
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
    // the paper grids stay byte-identical.
    const auto grid = sweep::paper::table1();
    const auto items = sweep::expand(grid);
    ASSERT_FALSE(items.empty());
    for (const auto& item : items) {
        EXPECT_EQ(item.key().find("/sc="), std::string::npos);
        EXPECT_EQ(item.model_key().find("/+"), std::string::npos);
    }

    engine::AnalysisSession session;
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);
    std::ostringstream csv;
    sweep::write_csv(report, grid, csv);
    EXPECT_NE(csv.str().find("line,strategy,parameters,variant,measure,disaster,"
                             "service_level,t,value\n"),
              std::string::npos);
    EXPECT_EQ(csv.str().find("scale"), std::string::npos);
}

TEST(SweepSymmetry, ReductionCountersRideTheExports) {
    // Orbit exploration reports through the lump counters: the full chain's
    // states in, the blocks of the orbit chain's quotient out.
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"FRF-1"};
    grid.variants = {sweep::individual_variant()};
    grid.measures = {sweep::measure_spec(sweep::MeasureKind::Availability)};
    sweep::RunnerOptions options;
    options.reduction = core::ReductionPolicy::Auto;
    sweep::SweepRunner runner(session, options);
    const auto report = runner.run(grid);
    EXPECT_EQ(report.stats.lump_states_in, 8129u);
    EXPECT_EQ(report.stats.lump_states_out, 257u);

    std::ostringstream json;
    sweep::write_json(report, grid, json);
    EXPECT_NE(json.str().find("\"lump_states_in\": 8129"), std::string::npos);
    EXPECT_NE(json.str().find("\"reduction_ratio\""), std::string::npos);
    EXPECT_EQ(json.str().find("symmetry"), std::string::npos);

    std::ostringstream csv;
    sweep::CsvOptions with_footer;
    with_footer.footer = true;
    sweep::write_csv(report, grid, csv, with_footer);
    EXPECT_NE(csv.str().find("reduction_ratio="), std::string::npos);
    EXPECT_EQ(csv.str().find("symmetry"), std::string::npos);
}

TEST(SweepSymmetry, IndividualQuotientsRenderThePaperBitwiseLikeTheLumpedEncoding) {
    // The finding that keeps LumpedEncoder honest: every value of
    // sweep::paper::everything() computed on the individual encoding under
    // ReductionPolicy::Auto (explored on its orbits, then lumped) carries
    // the same bits as on the hand-lumped encoding, over chains of the same
    // size.
    const auto run = [](const sweep::ModelVariant& variant) {
        auto grid = sweep::paper::everything();
        grid.variants = {variant};
        engine::AnalysisSession session;
        sweep::RunnerOptions options;
        options.reduction = core::ReductionPolicy::Auto;
        sweep::SweepRunner runner(session, options);
        return runner.run(grid);
    };
    const auto quotient = run(sweep::individual_variant());
    const auto lumped = run(sweep::lumped_variant());

    ASSERT_EQ(quotient.results.size(), lumped.results.size());
    std::size_t values = 0;
    for (std::size_t i = 0; i < quotient.results.size(); ++i) {
        const auto& q = quotient.results[i];
        const auto& l = lumped.results[i];
        ASSERT_EQ(q.item.index, l.item.index);
        EXPECT_EQ(q.model_explored_states, l.model_explored_states) << l.item.key();
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

TEST(SymmetryStub, SessionCompileIgnoresThePolicy) {
    // core::SymmetryPolicy survives only for the benchmark's sources: the
    // compile cache does not key on it, so Auto hits the entry Off made.
    engine::AnalysisSession session;
    const auto model = wt::line2(wt::strategy("FRF-1"));
    core::CompileOptions off;
    off.symmetry = core::SymmetryPolicy::Off;
    core::CompileOptions on = off;
    on.symmetry = core::SymmetryPolicy::Auto;
    const auto a = session.compile(model, off);
    const auto b = session.compile(model, on);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_FALSE(b->orbit_explored());
    EXPECT_EQ(b->chain().state_count(), 8129u);
    const auto stats = session.stats();
    EXPECT_EQ(stats.compile_misses, 1u);
    EXPECT_EQ(stats.compile_hits, 1u);
}
