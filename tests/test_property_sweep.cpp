// CSL properties as first-class sweep measures: every paper measure
// re-expressed as a formula (watertree::properties / sweep::paper::
// properties) must reproduce the measure pipeline's rows byte-identically
// through the sweep runner — with reduction Off AND Auto — because both
// paths run the very same kernels on the very same masks and distributions.
// Plus: grid validation, dedup keys, CSV property column and shard
// byte-identity, and a repeated property sweep on the session caches.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "support/errors.hpp"
#include "sweep/sweep.hpp"
#include "watertree/properties.hpp"

namespace core = arcade::core;
namespace engine = arcade::engine;
namespace sweep = arcade::sweep;
namespace wp = arcade::watertree::properties;

namespace {

sweep::MeasureSpec property_measure(std::string formula, sweep::DisasterKind disaster,
                                    std::vector<double> times, bool strip_repair = false) {
    sweep::MeasureSpec m;
    m.kind = sweep::MeasureKind::Property;
    m.disaster = disaster;
    m.times = std::move(times);
    m.property = std::move(formula);
    m.strip_repair = strip_repair;
    return m;
}

sweep::SweepReport run(const sweep::ScenarioGrid& grid, core::ReductionPolicy reduction,
                       engine::AnalysisSession& session) {
    sweep::RunnerOptions options;
    options.reduction = reduction;
    return sweep::SweepRunner(session, options).run(grid);
}

/// Bitwise equality of two value arrays (the acceptance criterion: a
/// re-expressed measure reproduces its row byte for byte).
void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << what << " at " << i << ": " << a[i] << " vs " << b[i];
    }
}

}  // namespace

TEST(PropertySweep, PropertiesGridReproducesEverythingByteIdentically) {
    // paper::properties() mirrors paper::everything() measure for measure,
    // so the expanded work lists align cell for cell — and every value must
    // match bitwise, under both reduction policies.
    const auto measures = sweep::paper::everything();
    const auto properties = sweep::paper::properties();
    ASSERT_EQ(sweep::expand(measures).size(), sweep::expand(properties).size());

    for (const auto reduction :
         {core::ReductionPolicy::Off, core::ReductionPolicy::Auto}) {
        engine::AnalysisSession session_measures;
        engine::AnalysisSession session_properties;
        const auto baseline = run(measures, reduction, session_measures);
        const auto expressed = run(properties, reduction, session_properties);
        ASSERT_EQ(baseline.results.size(), expressed.results.size());
        for (std::size_t i = 0; i < baseline.results.size(); ++i) {
            const auto& m = baseline.results[i];
            const auto& p = expressed.results[i];
            ASSERT_EQ(m.item.line, p.item.line);
            ASSERT_EQ(m.item.strategy, p.item.strategy);
            ASSERT_EQ(m.item.measure.disaster, p.item.measure.disaster);
            EXPECT_EQ(m.model_states, p.model_states);
            expect_bitwise(m.values, p.values,
                           p.item.key() + (reduction == core::ReductionPolicy::Auto
                                               ? " [auto]"
                                               : " [off]"));
        }
    }
}

TEST(PropertySweep, ReliabilityPropertyStripsRepairsAndMatchesByteIdentically) {
    // P=?[G<=t !"down"] with strip_repair is the Reliability measure: the
    // same repair-free compile (model_key carries /norepair) and the same
    // 1 - P(U<=t) arithmetic.
    auto measure_grid = sweep::paper::fig3();
    auto property_grid = measure_grid;
    property_grid.measures = {property_measure(
        wp::reliability_formula(1000.0), sweep::DisasterKind::None,
        measure_grid.measures.front().times, /*strip_repair=*/true)};

    for (const auto reduction :
         {core::ReductionPolicy::Off, core::ReductionPolicy::Auto}) {
        engine::AnalysisSession session_measures;
        engine::AnalysisSession session_properties;
        const auto baseline = run(measure_grid, reduction, session_measures);
        const auto expressed = run(property_grid, reduction, session_properties);
        ASSERT_EQ(baseline.results.size(), expressed.results.size());
        for (std::size_t i = 0; i < baseline.results.size(); ++i) {
            EXPECT_EQ(baseline.results[i].model_states, expressed.results[i].model_states)
                << "the property must compile the same repair-free model";
            expect_bitwise(baseline.results[i].values, expressed.results[i].values,
                           "reliability line " +
                               std::to_string(baseline.results[i].item.line));
        }
    }
}

TEST(PropertySweep, SteadyStateCostPropertyMatchesByteIdentically) {
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED", "FRF-1"};
    grid.measures = {
        sweep::measure_spec(sweep::MeasureKind::SteadyStateCost),
        property_measure(wp::steady_cost_formula(), sweep::DisasterKind::None, {}),
    };
    for (const auto reduction :
         {core::ReductionPolicy::Off, core::ReductionPolicy::Auto}) {
        engine::AnalysisSession session;
        const auto report = run(grid, reduction, session);
        ASSERT_EQ(report.results.size(), 4u);  // 2 strategies x 2 measures
        for (std::size_t s = 0; s < 2; ++s) {
            expect_bitwise(report.results[2 * s].values, report.results[2 * s + 1].values,
                           "steady-state cost " + report.results[2 * s].item.strategy);
        }
    }
}

TEST(PropertySweep, ExpandValidatesPropertySpecsEagerly) {
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};

    // Malformed formula text fails at expand(), not mid-run.
    grid.measures = {property_measure("P=? [ true U ]", sweep::DisasterKind::None, {})};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    // Malformed thresholds too (the InvalidArgument taxonomy).
    grid.measures = {
        property_measure("P>=1.5 [ F<=1 \"down\" ]", sweep::DisasterKind::None, {})};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    // A time grid demands a time-parametric quantitative top level.
    grid.measures = {property_measure("S=? [ \"operational\" ]",
                                      sweep::DisasterKind::None, {0.0, 1.0})};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    // Scalar (steady-state) properties cannot take a disaster.
    grid.measures = {
        property_measure("S=? [ \"operational\" ]", sweep::DisasterKind::Mixed, {})};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    // Formula text / strip_repair are property-measure fields only.
    sweep::MeasureSpec stray;
    stray.kind = sweep::MeasureKind::Availability;
    stray.property = "S=? [ \"operational\" ]";
    grid.measures = {stray};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    // Two property cells differing only in their formula both survive.
    grid.measures = {
        property_measure(wp::survivability_formula(1.0 / 3.0, 10.0),
                         sweep::DisasterKind::Mixed, {0.0, 5.0, 10.0}),
        property_measure(wp::survivability_formula(2.0 / 3.0, 10.0),
                         sweep::DisasterKind::Mixed, {0.0, 5.0, 10.0}),
    };
    EXPECT_EQ(sweep::expand(grid).size(), 2u);
}

TEST(PropertySweep, CsvGrowsPropertyColumnAndShardsConcatenateByteIdentically) {
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED", "FRF-1"};
    grid.measures = {
        property_measure(wp::availability_formula(), sweep::DisasterKind::None, {}),
        property_measure(wp::survivability_formula(1.0 / 3.0, 10.0),
                         sweep::DisasterKind::Mixed, {0.0, 5.0, 10.0}),
    };

    engine::AnalysisSession unsharded_session;
    sweep::SweepRunner unsharded(unsharded_session);
    std::ostringstream whole;
    const auto report = unsharded.run(grid);
    sweep::write_csv(report, grid, whole);

    // The property grid's CSV carries the trailing formula column.
    EXPECT_NE(whole.str().find(",property\n"), std::string::npos);
    EXPECT_NE(whole.str().find("S=? [ \"\"operational\"\" ]"), std::string::npos)
        << "formula quotes must be RFC-4180 escaped";

    // Per-shard CSVs (header on shard 1 only) concatenate byte-identically.
    std::ostringstream concatenated;
    for (std::size_t i = 1; i <= 2; ++i) {
        engine::AnalysisSession shard_session;
        sweep::RunnerOptions options;
        options.shard = {i, 2};
        sweep::SweepRunner runner(shard_session, options);
        sweep::CsvOptions csv;
        csv.header = i == 1;
        sweep::write_csv(runner.run(grid), grid, concatenated, csv);
    }
    EXPECT_EQ(whole.str(), concatenated.str());

    // The JSON export names the formula on every result row.
    std::ostringstream json;
    sweep::write_json(report, grid, json);
    EXPECT_NE(json.str().find("\"formula\": \"S=? [ \\\"operational\\\" ]\""),
              std::string::npos);
}

TEST(PropertySweep, RepeatedPropertySweepReusesTheCompileAndSteadyState) {
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    grid.measures = {
        property_measure(wp::availability_formula(), sweep::DisasterKind::None, {})};

    engine::AnalysisSession session;
    sweep::SweepRunner runner(session);
    const auto first = runner.run(grid);
    EXPECT_EQ(first.stats.compile_misses, 1u);
    EXPECT_EQ(first.stats.steady_state_misses, 1u);
    // The second run checks the formula again, on the cached model and its
    // cached steady state.
    const auto second = runner.run(grid);
    EXPECT_EQ(second.stats.compile_misses, 0u);
    EXPECT_EQ(second.stats.steady_state_hits, 1u);
    EXPECT_EQ(second.stats.steady_state_misses, 0u);
    expect_bitwise(first.results.front().values, second.results.front().values,
                   "repeated property row");
}
