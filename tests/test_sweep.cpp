// Unit tests: scenario-grid expansion, the task-graph runner and result
// export — including the sweep-vs-handwritten identity on the paper's
// Table 2 line-2 cell (the sweep layer must subsume the hand-rolled
// measure loops bit-for-bit, not just approximately).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arcade/measures.hpp"
#include "numeric/fox_glynn.hpp"
#include "support/errors.hpp"
#include "support/series.hpp"
#include "sweep/sweep.hpp"

namespace core = arcade::core;
namespace engine = arcade::engine;
namespace sweep = arcade::sweep;
namespace wt = arcade::watertree;

using sweep::DisasterKind;
using sweep::measure_spec;
using sweep::MeasureKind;

namespace {

sweep::ScenarioGrid table2_line2_ded() {
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    grid.measures = {measure_spec(MeasureKind::Availability)};
    return grid;
}

}  // namespace

TEST(ScenarioGrid, ExpandIsTheDeduplicatedCrossProduct) {
    sweep::ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = {"DED", "FRF-1"};
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::Availability),  // dup
        measure_spec(MeasureKind::SteadyStateCost),
    };
    const auto items = sweep::expand(grid);
    EXPECT_EQ(items.size(), 2u * 2u * 2u);  // duplicate measure dropped
    EXPECT_EQ(items.front().line, 1);
    EXPECT_EQ(items.front().strategy, "DED");
    EXPECT_EQ(items.back().line, 2);
    EXPECT_EQ(items.back().strategy, "FRF-1");
}

TEST(ScenarioGrid, MixedDisasterIsPrunedOffLine1NotAnError) {
    sweep::ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = {"DED"};
    grid.measures = {measure_spec(MeasureKind::Survivability, DisasterKind::Mixed,
                                  1.0 / 3.0, {0.0, 1.0})};
    const auto items = sweep::expand(grid);
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items.front().line, 2);
}

TEST(ScenarioGrid, MalformedSpecsThrowEagerly) {
    auto grid = table2_line2_ded();
    grid.strategies = {"NOT-A-STRATEGY"};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    grid = table2_line2_ded();
    grid.lines = {3};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    grid = table2_line2_ded();
    grid.measures = {measure_spec(MeasureKind::Survivability, DisasterKind::Mixed,
                                  1.0 / 3.0, {})};  // series without a time grid
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    grid = table2_line2_ded();
    grid.measures = {measure_spec(MeasureKind::Survivability, DisasterKind::Mixed,
                                  1.0 / 3.0, {2.0, 1.0})};  // descending grid
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    grid = table2_line2_ded();
    grid.measures = {measure_spec(MeasureKind::Reliability, DisasterKind::AllPumps, 1.0,
                                  {0.0, 1.0})};  // reliability cannot take a disaster
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    grid = table2_line2_ded();
    grid.parameters.clear();  // empty parameters: zero items would be silent
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);
}

TEST(SweepRunner, RejectsItemsPointingOutsideTheGridsParameters) {
    engine::AnalysisSession session;
    sweep::SweepRunner runner(session);
    const auto grid = table2_line2_ded();
    auto items = sweep::expand(grid);
    items.front().parameter_index = 7;
    EXPECT_THROW((void)runner.run(grid, items), arcade::InvalidArgument);
}

TEST(SweepRunner, Table2Line2CellMatchesHandwrittenBenchExactly) {
    // The line-2 Table 2 cell, exactly as the hand-rolled measure loop
    // computes it: session-cached lumped compile + cached steady state.  The
    // sweep must return the identical double, not a close one.
    engine::AnalysisSession session;
    sweep::SweepRunner runner(session);
    const auto report = runner.run(table2_line2_ded());
    ASSERT_EQ(report.results.size(), 1u);
    ASSERT_EQ(report.results.front().values.size(), 1u);

    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    const double by_hand = core::availability(
        session, session.compile(wt::line2(wt::strategy("DED")), lumped));
    EXPECT_EQ(report.results.front().values.front(), by_hand);

    // and it lands on the paper's digits (Table 2, line 2, DED)
    EXPECT_NEAR(report.results.front().values.front(), 0.8186317, 1e-7);
}

TEST(SweepRunner, SurvivabilitySeriesMatchesDirectEvaluation) {
    engine::AnalysisSession session;
    const auto times = arcade::time_grid(10.0, 11);
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"FRF-1"};
    grid.measures = {measure_spec(MeasureKind::Survivability, DisasterKind::Mixed,
                                  1.0 / 3.0, times)};
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);
    ASSERT_EQ(report.results.size(), 1u);

    const auto model = wt::compile_line(session, 2, wt::strategy("FRF-1"),
                                        core::Encoding::Lumped);
    const auto direct =
        core::survivability_series(*model, wt::disaster2(), 1.0 / 3.0, times);
    EXPECT_EQ(report.results.front().values, direct);
}

TEST(SweepRunner, ResultsAreDeterministicAcrossThreadCounts) {
    const auto times = arcade::time_grid(5.0, 6);
    sweep::ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = {"DED", "FRF-1", "FFF-2"};
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::Survivability, DisasterKind::AllPumps, 1.0 / 3.0,
                     times),
    };
    engine::AnalysisSession serial_session;
    sweep::SweepRunner serial(serial_session, {1u, {}});
    engine::AnalysisSession parallel_session;
    sweep::SweepRunner parallel(parallel_session, {4u, {}});
    const auto a = serial.run(grid);
    const auto b = parallel.run(grid);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].item.key(), b.results[i].item.key()) << i;
        EXPECT_EQ(a.results[i].values, b.results[i].values) << a.results[i].item.key();
    }
}

TEST(SweepRunner, SharedPrefixesCompileOnceAndRepeatSweepsHitCache) {
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED", "FRF-1"};
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::SteadyStateCost),
    };
    sweep::SweepRunner runner(session);
    const auto first = runner.run(grid);
    EXPECT_EQ(first.unique_models, 2u);
    EXPECT_EQ(first.stats.compile_misses, 2u);      // one per unique model
    EXPECT_EQ(first.stats.steady_state_misses, 2u); // shared by both measures
    EXPECT_EQ(first.stats.steady_state_hits, 2u);
    EXPECT_GT(first.cache_hit_rate(), 0.0);

    const auto second = runner.run(grid);
    EXPECT_EQ(second.stats.compile_misses, 0u);  // everything cached now
    EXPECT_EQ(second.stats.steady_state_misses, 0u);
    for (std::size_t i = 0; i < first.results.size(); ++i) {
        EXPECT_EQ(first.results[i].values, second.results[i].values);
    }
}

TEST(SweepExport, CsvAndJsonCarryEveryPointAndTheCounters) {
    engine::AnalysisSession session;
    const std::vector<double> times{0.0, 1.0, 2.0};
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::Survivability, DisasterKind::Mixed, 1.0 / 3.0, times),
    };
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);

    std::ostringstream csv;
    sweep::write_csv(report, grid, csv);
    std::istringstream lines(csv.str());
    std::string line;
    std::size_t rows = 0;
    while (std::getline(lines, line)) ++rows;
    // header + 1 scalar row + 3 series rows; the counter footer is opt-in
    // (comment lines break strict RFC-4180 parsers)
    EXPECT_EQ(rows, 1u + 1u + times.size());
    EXPECT_NE(csv.str().find("2,DED,paper,lumped,availability,none"), std::string::npos);
    EXPECT_EQ(csv.str().find("cache_hit_rate="), std::string::npos);

    sweep::CsvOptions with_footer;
    with_footer.footer = true;
    std::ostringstream footered;
    sweep::write_csv(report, grid, footered, with_footer);
    EXPECT_NE(footered.str().find("# scenarios=2"), std::string::npos);
    EXPECT_NE(footered.str().find("cache_hit_rate="), std::string::npos);

    sweep::CsvOptions headerless;
    headerless.header = false;
    std::ostringstream body;
    sweep::write_csv(report, grid, body, headerless);
    EXPECT_EQ(body.str().find("line,strategy"), std::string::npos);
    EXPECT_EQ(csv.str(), "line,strategy,parameters,variant,measure,disaster,"
                         "service_level,t,value\n" + body.str());

    // The JSON export carries the counters unconditionally.
    std::ostringstream json;
    sweep::write_json(report, grid, json);
    EXPECT_NE(json.str().find("\"unique_models\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"measure\": \"survivability\""), std::string::npos);
    EXPECT_NE(json.str().find("\"states_per_second\""), std::string::npos);
    EXPECT_NE(json.str().find("\"cache_hit_rate\""), std::string::npos);
    EXPECT_NE(json.str().find("\"variant\": \"lumped\""), std::string::npos);
}

TEST(ScenarioGrid, VariantAxisSweepsEncodingsAsDistinctCells) {
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    grid.variants = {sweep::individual_variant(), sweep::lumped_variant()};
    grid.measures = {measure_spec(MeasureKind::StateSpace)};
    const auto items = sweep::expand(grid);
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].variant.name, "individual");
    EXPECT_EQ(items[1].variant.name, "lumped");
    EXPECT_NE(items[0].model_key(), items[1].model_key());
    EXPECT_EQ(items[0].index, 0u);
    EXPECT_EQ(items[1].index, 1u);

    // An empty variant axis would silently expand to nothing.
    grid.variants.clear();
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);

    // A state-space cell with a disaster is meaningless, not prunable.
    grid.variants = {sweep::lumped_variant()};
    grid.measures = {measure_spec(MeasureKind::StateSpace, DisasterKind::Mixed, 1.0, {})};
    EXPECT_THROW((void)sweep::expand(grid), arcade::InvalidArgument);
}

TEST(SweepRunner, StateSpaceMeasureReportsTheCompiledModelSizes) {
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    grid.variants = {sweep::individual_variant(), sweep::lumped_variant()};
    grid.measures = {measure_spec(MeasureKind::StateSpace)};
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);
    ASSERT_EQ(report.results.size(), 2u);

    const auto individual = session.compile(wt::line2(wt::strategy("DED")));
    core::CompileOptions lumped_options;
    lumped_options.encoding = core::Encoding::Lumped;
    const auto lumped = session.compile(wt::line2(wt::strategy("DED")), lumped_options);

    EXPECT_EQ(report.results[0].model_states, individual->state_count());
    EXPECT_EQ(report.results[0].model_transitions, individual->transition_count());
    EXPECT_EQ(report.results[0].values.front(),
              static_cast<double>(individual->state_count()));
    EXPECT_EQ(report.results[1].model_states, lumped->state_count());
    EXPECT_EQ(report.results[1].model_transitions, lumped->transition_count());
    // paper Table 1: line 2 has 512 individual states; far fewer lumped
    EXPECT_EQ(report.results[0].model_states, 512u);
    EXPECT_LT(report.results[1].model_states, report.results[0].model_states);
}

TEST(SweepRunner, NoRepairVariantCompilesTheStrippedModel) {
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    grid.variants = {{"norepair", core::Encoding::Lumped, false}};
    grid.measures = {measure_spec(MeasureKind::StateSpace)};
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);
    ASSERT_EQ(report.results.size(), 1u);

    core::CompileOptions lumped_options;
    lumped_options.encoding = core::Encoding::Lumped;
    const auto direct = session.compile(
        core::without_repair(wt::line2(wt::strategy("DED"))), lumped_options);
    EXPECT_EQ(report.results.front().model_states, direct->state_count());
    // The sweep compiled the same artefact the direct call now hits.
    EXPECT_GT(session.stats().compile_hits, 0u);
}

TEST(ShardSpec, ParsesTheCliSpelling) {
    const auto spec = sweep::ShardSpec::parse("2/3");
    EXPECT_EQ(spec.index, 2u);
    EXPECT_EQ(spec.count, 3u);
    EXPECT_TRUE(spec.is_sharded());
    EXPECT_FALSE(sweep::ShardSpec{}.is_sharded());
    for (const char* bad : {"", "2", "0/2", "3/2", "2/0", "x/2", "2/y", "/", "1/3o",
                            "+1/3", " 1/3", "1/3 ", "-1/3"}) {
        EXPECT_THROW((void)sweep::ShardSpec::parse(bad), arcade::InvalidArgument) << bad;
    }
}

TEST(ParseCount, AcceptsOnlyBareDecimalDigits) {
    EXPECT_EQ(sweep::parse_count("0"), 0u);
    EXPECT_EQ(sweep::parse_count("3"), 3u);
    EXPECT_EQ(sweep::parse_count("007"), 7u);
    EXPECT_EQ(sweep::parse_count("999999999"), 999999999u);
    for (const char* bad : {"", "-1", "+1", "3x", "1z", " 2", "2 ", "1.0", "0x10",
                            "1000000000"}) {
        EXPECT_FALSE(sweep::parse_count(bad).has_value()) << bad;
    }
}

TEST(ShardSlice, PartitionsTheWorkListContiguouslyAndExhaustively) {
    const auto grid = sweep::paper::everything();
    const auto items = sweep::expand(grid);
    ASSERT_GT(items.size(), 10u);
    for (std::size_t n = 1; n <= 4; ++n) {
        std::vector<std::string> concatenated;
        std::size_t min_size = items.size();
        std::size_t max_size = 0;
        for (std::size_t i = 1; i <= n; ++i) {
            const auto slice = sweep::shard_slice(items, {i, n});
            min_size = std::min(min_size, slice.size());
            max_size = std::max(max_size, slice.size());
            for (const auto& item : slice) concatenated.push_back(item.key());
        }
        // balanced to within one item, and concatenation == original order
        EXPECT_LE(max_size - min_size, 1u) << n;
        ASSERT_EQ(concatenated.size(), items.size()) << n;
        for (std::size_t k = 0; k < items.size(); ++k) {
            EXPECT_EQ(concatenated[k], items[k].key());
            EXPECT_EQ(items[k].index, k);
        }
    }
    EXPECT_THROW((void)sweep::shard_slice(items, {5, 4}), arcade::InvalidArgument);
}

TEST(ShardSlice, ShardCsvsConcatenateByteIdenticallyForOneTwoThreeShards) {
    // Separate sessions per shard model separate processes: the concatenated
    // per-shard CSVs (header on shard 1 only) must reproduce the unsharded
    // document byte-for-byte, for every shard count in {1, 2, 3}.
    sweep::ScenarioGrid grid;
    grid.lines = {1, 2};
    grid.strategies = {"DED", "FRF-1"};
    grid.variants = {sweep::lumped_variant(), sweep::individual_variant()};
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::StateSpace),
        measure_spec(MeasureKind::Survivability, DisasterKind::AllPumps, 1.0 / 3.0,
                     arcade::time_grid(5.0, 6)),
    };

    engine::AnalysisSession unsharded_session;
    sweep::SweepRunner unsharded(unsharded_session);
    std::ostringstream whole;
    sweep::write_csv(unsharded.run(grid), grid, whole);

    for (std::size_t n = 1; n <= 3; ++n) {
        std::string concatenated;
        for (std::size_t i = 1; i <= n; ++i) {
            engine::AnalysisSession shard_session;
            sweep::SweepRunner runner(shard_session, {0u, {i, n}});
            std::ostringstream os;
            sweep::CsvOptions options;
            options.header = i == 1;
            sweep::write_csv(runner.run(grid), grid, os, options);
            concatenated += os.str();
        }
        EXPECT_EQ(concatenated, whole.str()) << n << " shards";
    }
}

TEST(SweepExport, CsvAndJsonEscapingRoundTripsHostileNames) {
    // Names with separators, quotes and newlines must round-trip through the
    // quoted/escaped forms unchanged.
    const std::vector<std::string> hostile = {
        "plain", "comma,name", "quote\"name", "line\nbreak", "cr\rname",
        "back\\slash", "all,of\"it\\\nat once",
    };
    for (const auto& s : hostile) {
        // CSV: strip the surrounding quotes, fold doubled quotes.
        const std::string field = sweep::csv_field(s);
        std::string parsed;
        if (!field.empty() && field.front() == '"') {
            for (std::size_t i = 1; i + 1 < field.size(); ++i) {
                if (field[i] == '"') {
                    ASSERT_LT(i + 1, field.size()) << s;
                    ASSERT_EQ(field[i + 1], '"') << s;
                    ++i;
                }
                parsed.push_back(field[i]);
            }
        } else {
            parsed = field;
        }
        EXPECT_EQ(parsed, s);

        // JSON: undo \\, \" and \u00xx control escapes.
        const std::string escaped = sweep::json_escape(s);
        std::string unescaped;
        for (std::size_t i = 0; i < escaped.size(); ++i) {
            if (escaped[i] != '\\') {
                unescaped.push_back(escaped[i]);
                continue;
            }
            ASSERT_LT(i + 1, escaped.size()) << s;
            if (escaped[i + 1] == 'u') {
                ASSERT_LE(i + 6, escaped.size()) << s;
                unescaped.push_back(static_cast<char>(
                    std::stoi(escaped.substr(i + 2, 4), nullptr, 16)));
                i += 5;
            } else {
                unescaped.push_back(escaped[i + 1]);
                ++i;
            }
        }
        EXPECT_EQ(unescaped, s);
    }

    // And end to end: a hostile parameter-set name lands quoted in the CSV
    // and escaped in the JSON without corrupting either document.
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    sweep::ParameterSet nasty;
    nasty.name = "mttr,\"x10\"\nfast";
    grid.parameters = {nasty};
    grid.measures = {measure_spec(MeasureKind::Availability)};
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);

    std::ostringstream csv;
    sweep::write_csv(report, grid, csv);
    EXPECT_NE(csv.str().find("\"mttr,\"\"x10\"\"\nfast\""), std::string::npos);
    std::ostringstream json;
    sweep::write_json(report, grid, json);
    EXPECT_NE(json.str().find("mttr,\\\"x10\\\"\\u000afast"), std::string::npos);
}

namespace {

// The stream writers write_csv/write_json replaced, kept as the reference
// for their bytes: snprintf("%.17g") per double and operator<< per field.

std::string reference_fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string reference_json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string reference_csv_field(const std::string& s) {
    if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"') out += "\"\"";
        else out.push_back(c);
    }
    out.push_back('"');
    return out;
}

bool reference_has_property(const sweep::ScenarioGrid& grid) {
    for (const auto& m : grid.measures) {
        if (m.kind == MeasureKind::Property) return true;
    }
    return false;
}

bool reference_has_scale(const sweep::ScenarioGrid& grid) {
    for (const auto& sc : grid.scales) {
        if (!sc.is_default()) return true;
    }
    return false;
}

std::string reference_csv(const sweep::SweepReport& report, const sweep::ScenarioGrid& grid,
                          const sweep::CsvOptions& options) {
    const auto fmt = reference_fmt;
    std::ostringstream os;
    const bool property_column = reference_has_property(grid);
    const bool scale_column = reference_has_scale(grid);
    if (options.header) {
        os << "line,strategy,parameters,variant,measure,disaster,service_level,t,value";
        if (property_column) os << ",property";
        if (scale_column) os << ",scale";
        os << "\n";
    }
    for (const auto& r : report.results) {
        const auto& m = r.item.measure;
        const std::string prefix =
            std::to_string(r.item.line) + "," + reference_csv_field(r.item.strategy) + "," +
            reference_csv_field(grid.parameters[r.item.parameter_index].name) + "," +
            reference_csv_field(r.item.variant.name) + "," + sweep::to_string(m.kind) + "," +
            sweep::to_string(m.disaster) + "," +
            (m.kind == MeasureKind::Survivability ? fmt(m.service_level) : "") + ",";
        std::string suffix;
        if (property_column) (suffix += ",") += reference_csv_field(m.property);
        if (scale_column) (suffix += ",") += reference_csv_field(r.item.scale.name);
        if (m.is_series()) {
            for (std::size_t i = 0; i < r.values.size(); ++i) {
                os << prefix << fmt(m.times[i]) << "," << fmt(r.values[i]) << suffix << "\n";
            }
        } else {
            os << prefix << "," << fmt(r.values.front()) << suffix << "\n";
        }
    }
    if (options.footer) {
        os << "# scenarios=" << report.results.size() << " unique_models="
           << report.unique_models << " compile_hits=" << report.stats.compile_hits
           << " compile_misses=" << report.stats.compile_misses
           << " steady_hits=" << report.stats.steady_state_hits
           << " steady_misses=" << report.stats.steady_state_misses
           << " cache_hit_rate=" << fmt(report.cache_hit_rate())
           << " state_points=" << report.state_points
           << " states_per_sec=" << fmt(report.states_per_second())
           << " wall_seconds=" << fmt(report.wall_seconds) << "\n";
    }
    return os.str();
}

std::string reference_json(const sweep::SweepReport& report, const sweep::ScenarioGrid& grid) {
    const auto fmt = reference_fmt;
    std::ostringstream os;
    os << "{\n  \"counters\": {\n"
       << "    \"scenarios\": " << report.results.size() << ",\n"
       << "    \"unique_models\": " << report.unique_models << ",\n"
       << "    \"compile_hits\": " << report.stats.compile_hits << ",\n"
       << "    \"compile_misses\": " << report.stats.compile_misses << ",\n"
       << "    \"steady_state_hits\": " << report.stats.steady_state_hits << ",\n"
       << "    \"steady_state_misses\": " << report.stats.steady_state_misses << ",\n"
       << "    \"cache_hit_rate\": " << fmt(report.cache_hit_rate()) << ",\n"
       << "    \"state_points\": " << report.state_points << ",\n"
       << "    \"states_per_second\": " << fmt(report.states_per_second()) << ",\n"
       << "    \"wall_seconds\": " << fmt(report.wall_seconds) << "\n  },\n"
       << "  \"results\": [\n";
    const bool scale_field = reference_has_scale(grid);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const auto& r = report.results[i];
        const auto& m = r.item.measure;
        os << "    {\"index\": " << r.item.index << ", \"line\": " << r.item.line
           << ", \"strategy\": \"" << reference_json_escape(r.item.strategy)
           << "\", \"parameters\": \""
           << reference_json_escape(grid.parameters[r.item.parameter_index].name)
           << "\", \"variant\": \"" << reference_json_escape(r.item.variant.name)
           << "\", \"measure\": \"" << sweep::to_string(m.kind) << "\", \"disaster\": \""
           << sweep::to_string(m.disaster) << "\", \"service_level\": " << fmt(m.service_level)
           << ", \"formula\": \"" << reference_json_escape(m.property) << "\"";
        if (scale_field) {
            os << ", \"scale\": \"" << reference_json_escape(r.item.scale.name)
               << "\", \"model_explored_states\": " << r.model_explored_states;
        }
        os << ", \"model_states\": " << r.model_states
           << ", \"model_transitions\": " << r.model_transitions
           << ", \"seconds\": " << fmt(r.seconds) << ",\n     \"times\": [";
        for (std::size_t k = 0; k < m.times.size(); ++k) {
            os << (k > 0 ? ", " : "") << fmt(m.times[k]);
        }
        os << "], \"values\": [";
        for (std::size_t k = 0; k < r.values.size(); ++k) {
            os << (k > 0 ? ", " : "") << fmt(r.values[k]);
        }
        os << "]}" << (i + 1 < report.results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

/// write_csv under every header/footer combination and write_json must
/// reproduce the reference writers' bytes.
void expect_exports_match_reference(const sweep::SweepReport& report,
                                    const sweep::ScenarioGrid& grid, const std::string& what) {
    for (const bool header : {true, false}) {
        for (const bool footer : {false, true}) {
            sweep::CsvOptions options;
            options.header = header;
            options.footer = footer;
            std::ostringstream csv;
            sweep::write_csv(report, grid, csv, options);
            EXPECT_EQ(csv.str(), reference_csv(report, grid, options))
                << what << ": header=" << header << " footer=" << footer;
        }
    }
    std::ostringstream json;
    sweep::write_json(report, grid, json);
    EXPECT_EQ(json.str(), reference_json(report, grid)) << what;
}

}  // namespace

TEST(SweepExport, WritersMatchTheStreamReferenceByteForByte) {
    engine::AnalysisSession session;
    {
        // The paper evaluation on the lumped models: series, scalar and
        // survivability rows (service_level column).
        const auto grid = sweep::paper::everything();
        sweep::SweepRunner runner(session);
        expect_exports_match_reference(runner.run(grid), grid, "paper");
    }
    {
        // CSL properties: the trailing `property` column.
        const auto grid = sweep::paper::properties();
        sweep::RunnerOptions options;
        options.reduction = core::ReductionPolicy::Auto;
        sweep::SweepRunner runner(session, options);
        const auto report = runner.run(grid);
        ASSERT_FALSE(report.results.empty());
        expect_exports_match_reference(report, grid, "properties");
    }
    {
        // One extra pump: the `scale` column and model_explored_states.
        const auto grid = sweep::studies::pump_scaling(1);
        sweep::RunnerOptions options;
        options.reduction = core::ReductionPolicy::Auto;
        sweep::SweepRunner runner(session, options);
        expect_exports_match_reference(runner.run(grid), grid, "pump scaling");
    }
    {
        // Hostile names: separators, quotes, newlines, backslashes and
        // control characters in the parameter-set and variant names.
        sweep::ScenarioGrid grid;
        grid.lines = {2};
        grid.strategies = {"DED"};
        sweep::ParameterSet nasty;
        nasty.name = "mttr,\"x10\"\nfast\r\x01\x1f\t";
        grid.parameters = {nasty};
        auto variant = sweep::lumped_variant();
        variant.name = "lumped\\\"\b,\x7f";
        grid.variants = {variant};
        grid.measures = {measure_spec(MeasureKind::Availability),
                         measure_spec(MeasureKind::Survivability, DisasterKind::Mixed,
                                      1.0 / 3.0, {0.0, 1e-7, 0.5})};
        sweep::SweepRunner runner(session);
        expect_exports_match_reference(runner.run(grid), grid, "hostile names");
    }
}

TEST(SweepExport, TimeGridTextFollowsEveryChangeOfGrid) {
    // The writers reuse the previous result's time-grid text when the two
    // grids are bitwise equal.  A grid that differs anywhere (0 against -0,
    // one point fewer, a subnormal for 0) must be formatted afresh, also
    // after a scalar result in between.
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    grid.measures = {measure_spec(MeasureKind::Availability),
                     measure_spec(MeasureKind::Survivability, DisasterKind::Mixed, 1.0 / 3.0,
                                  {0.0, 0.5, 2.0})};
    sweep::SweepRunner runner(session);
    const auto base = runner.run(grid);
    ASSERT_EQ(base.results.size(), 2u);
    const auto& scalar = base.results[0].item.measure.is_series() ? base.results[1]
                                                                   : base.results[0];
    const auto& series = base.results[0].item.measure.is_series() ? base.results[0]
                                                                   : base.results[1];
    ASSERT_TRUE(series.item.measure.is_series());
    ASSERT_FALSE(scalar.item.measure.is_series());

    const std::vector<std::vector<double>> grids = {
        {0.0, 0.5, 2.0}, {0.0, 0.5, 2.0}, {-0.0, 0.5, 2.0}, {0.0, 0.5},
        {0.0, 0.5, 2.0}, {},              {0.0, 0.5, 2.0}, {5e-324, 0.5, 2.0}};
    auto report = base;
    report.results.clear();
    for (const auto& times : grids) {
        if (times.empty()) {
            report.results.push_back(scalar);
            continue;
        }
        auto r = series;
        r.item.measure.times = times;
        r.values.resize(times.size(), 0.25);
        report.results.push_back(std::move(r));
    }
    expect_exports_match_reference(report, grid, "changing grids");
}

TEST(SweepRunner, ParameterPerturbationsAreDistinctCells) {
    engine::AnalysisSession session;
    sweep::ScenarioGrid grid;
    grid.lines = {2};
    grid.strategies = {"DED"};
    sweep::ParameterSet slow_repair;
    slow_repair.name = "pump-mttr-x10";
    slow_repair.params.pump_mttr = 10.0;
    grid.parameters = {sweep::ParameterSet{}, slow_repair};
    grid.measures = {measure_spec(MeasureKind::Availability)};
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.unique_models, 2u);
    // ten-times-slower pump repair must strictly hurt availability
    EXPECT_LT(report.results[1].values.front(), report.results[0].values.front());
}

TEST(Studies, MttrSensitivityBaselineReproducesThePaperCells) {
    // The 1.00x parameter set divides every MTTR by exactly 1.0, so its
    // cells are the paper's models — fingerprint-identical to a direct
    // compile — while the perturbed sets are distinct cells.
    const auto grid = sweep::studies::mttr_sensitivity({0.5, 1.0, 2.0});
    ASSERT_EQ(grid.parameters.size(), 3u);
    EXPECT_EQ(grid.parameters[1].name, "repair-rate-1.00x");

    engine::AnalysisSession session;
    sweep::SweepRunner runner(session);
    const auto report = runner.run(grid);
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    const double direct = core::availability(
        session, session.compile(wt::line2(wt::strategy("DED")), lumped));
    const sweep::ScenarioResult* baseline = nullptr;
    const sweep::ScenarioResult* slow = nullptr;
    const sweep::ScenarioResult* fast = nullptr;
    for (const auto& r : report.results) {
        if (r.item.line != 2 || r.item.strategy != "DED" ||
            r.item.measure.kind != sweep::MeasureKind::Availability) {
            continue;
        }
        if (r.item.parameter_index == 0) slow = &r;
        if (r.item.parameter_index == 1) baseline = &r;
        if (r.item.parameter_index == 2) fast = &r;
    }
    ASSERT_NE(baseline, nullptr);
    ASSERT_NE(slow, nullptr);
    ASSERT_NE(fast, nullptr);
    EXPECT_EQ(baseline->values.front(), direct);  // same cached model
    // Halved repair rates hurt availability; doubled rates improve it.
    EXPECT_LT(slow->values.front(), baseline->values.front());
    EXPECT_GT(fast->values.front(), baseline->values.front());

    // The renderer needs every (line, strategy, parameter) cell; smoke it.
    std::ostringstream os;
    sweep::studies::render_mttr_sensitivity(report, grid, os);
    EXPECT_NE(os.str().find("repair-rate-2.00x"), std::string::npos);
    EXPECT_NE(os.str().find("L2 FFF-2"), std::string::npos);

    EXPECT_THROW((void)sweep::studies::mttr_sensitivity({}), arcade::InvalidArgument);
    EXPECT_THROW((void)sweep::studies::mttr_sensitivity({-1.0}), arcade::InvalidArgument);
}

TEST(Studies, PreemptiveStrategyVariantsResolveByName) {
    const auto& pre = wt::strategy("FRF-2-pre");
    EXPECT_TRUE(pre.preemptive);
    EXPECT_EQ(pre.crews, 2u);
    EXPECT_EQ(pre.policy, core::RepairPolicy::FastestRepairFirst);
    // The paper's own strategy list is unchanged.
    EXPECT_EQ(wt::paper_strategies().size(), 5u);
    EXPECT_THROW((void)wt::strategy("DED-pre"), arcade::InvalidArgument);
}

TEST(SweepRunner, SharedCostPassMatchesSeparateCostCellsBitwise) {
    // The Fig 6 (instantaneous) and Fig 7 (accumulated) cells of one model
    // share one power pass when both are in the grid.  Run them alone and
    // together: every curve must keep its bits, and the shared run must
    // still deliver its results in grid order.
    const auto paper = sweep::paper::everything();
    const auto cost_measure = [&](MeasureKind kind) {
        for (const auto& m : paper.measures) {
            if (m.kind == kind) return m;
        }
        throw std::logic_error("paper grid lost a cost measure");
    };
    const auto grid_of = [&](std::vector<sweep::MeasureSpec> measures) {
        auto grid = paper;
        grid.measures = std::move(measures);
        return grid;
    };
    const auto inst = cost_measure(MeasureKind::InstantaneousCost);
    const auto acc = cost_measure(MeasureKind::AccumulatedCost);
    const auto run = [](const sweep::ScenarioGrid& grid) {
        engine::AnalysisSession session;
        return sweep::SweepRunner(session, {4u, {}}).run(grid);
    };
    const auto inst_only = run(grid_of({inst}));
    const auto acc_only = run(grid_of({acc}));
    const auto both_grid = grid_of({inst, acc});
    const auto both = run(both_grid);

    std::map<std::string, std::vector<double>> separate;
    for (const auto* report : {&inst_only, &acc_only}) {
        for (const auto& r : report->results) separate[r.item.key()] = r.values;
    }
    const auto expanded = sweep::expand(both_grid);
    ASSERT_EQ(both.results.size(), expanded.size());
    ASSERT_EQ(both.results.size(), separate.size());
    for (std::size_t i = 0; i < both.results.size(); ++i) {
        const auto& r = both.results[i];
        EXPECT_EQ(r.item.index, i);
        EXPECT_EQ(r.item.key(), expanded[i].key());
        const auto it = separate.find(r.item.key());
        ASSERT_NE(it, separate.end()) << r.item.key();
        ASSERT_EQ(r.values.size(), it->second.size()) << r.item.key();
        for (std::size_t k = 0; k < r.values.size(); ++k) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(r.values[k]),
                      std::bit_cast<std::uint64_t>(it->second[k]))
                << r.item.key() << " point " << k;
        }
        EXPECT_GT(r.seconds, 0.0);
    }
}

namespace {

/// Every SessionStats counter of two runs, side by side.
void expect_same_stats(const engine::SessionStats& a, const engine::SessionStats& b,
                       const std::string& context) {
    EXPECT_EQ(a.compile_hits, b.compile_hits) << context;
    EXPECT_EQ(a.compile_misses, b.compile_misses) << context;
    EXPECT_EQ(a.steady_state_hits, b.steady_state_hits) << context;
    EXPECT_EQ(a.steady_state_misses, b.steady_state_misses) << context;
}

}  // namespace

TEST(SweepRunner, PaperGridIsBitwiseEqualAtEveryThreadCount) {
    // The whole paper evaluation, cost pairs included: the order the task
    // graph runs cells in must not reach a single bit of any result, nor
    // any session counter.
    const auto grid = sweep::paper::everything();
    const auto run = [&](unsigned threads) {
        engine::AnalysisSession session;
        return sweep::SweepRunner(session, {threads, {}}).run(grid);
    };
    arcade::numeric::fox_glynn_cache_clear();
    const auto serial = run(1);
    EXPECT_EQ(serial.stats.compile_misses, serial.unique_models);
    // One serial pass asks for 1603 distinct Fox–Glynn windows (README).
    const auto windows = arcade::numeric::fox_glynn_cache_stats();
    EXPECT_EQ(windows.misses, 1603u);
    EXPECT_EQ(windows.hits, 3147u);
    for (const unsigned threads : {2u, 3u, 8u}) {
        const std::string context = std::to_string(threads) + " threads";
        const auto parallel = run(threads);
        EXPECT_EQ(parallel.unique_models, serial.unique_models) << context;
        EXPECT_EQ(parallel.stats.compile_misses, parallel.unique_models) << context;
        expect_same_stats(parallel.stats, serial.stats, context);
        ASSERT_EQ(parallel.results.size(), serial.results.size()) << context;
        for (std::size_t i = 0; i < serial.results.size(); ++i) {
            const auto& a = serial.results[i];
            const auto& b = parallel.results[i];
            EXPECT_EQ(b.item.key(), a.item.key()) << context;
            EXPECT_EQ(b.model_states, a.model_states) << a.item.key();
            EXPECT_EQ(b.model_transitions, a.model_transitions) << a.item.key();
            EXPECT_EQ(b.model_explored_states, a.model_explored_states) << a.item.key();
            ASSERT_EQ(b.values.size(), a.values.size()) << a.item.key();
            for (std::size_t k = 0; k < a.values.size(); ++k) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(b.values[k]),
                          std::bit_cast<std::uint64_t>(a.values[k]))
                    << context << " " << a.item.key() << " point " << k;
            }
        }
    }
}

TEST(SweepRunner, AModelThatFailsToCompileFailsTheRunAtEveryThreadCount) {
    // Line 1 with 17 spare pumps has 21 interchangeable pumps: under Auto
    // the closed-form size of its full chain overflows, and the compile
    // throws ModelError.  The grid's other model compiles and its cells
    // run; the run must still end in the failed model's own error.
    std::string expected;
    try {
        engine::AnalysisSession session;
        (void)wt::compile_line(session, 1, wt::strategy("FRF-1"), core::Encoding::Individual,
                               {}, true, core::ReductionPolicy::Auto, {}, 17);
        FAIL() << "21 interchangeable pumps compiled";
    } catch (const arcade::ModelError& e) {
        expected = e.what();
    }
    sweep::ScenarioGrid grid;
    grid.lines = {1};
    grid.strategies = {"FRF-1"};
    grid.variants = {sweep::individual_variant()};
    grid.scales = {sweep::ScaleSpec{}, sweep::ScaleSpec{"pumps+17", 17}};
    grid.measures = {
        measure_spec(MeasureKind::Availability),
        measure_spec(MeasureKind::Survivability, DisasterKind::AllPumps, 1.0 / 3.0,
                     arcade::time_grid(4.5, 10)),
    };
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        engine::AnalysisSession session;
        sweep::RunnerOptions options;
        options.threads = threads;
        options.reduction = core::ReductionPolicy::Auto;
        try {
            (void)sweep::SweepRunner(session, options).run(grid);
            ADD_FAILURE() << "no error at " << threads << " threads";
        } catch (const arcade::ModelError& e) {
            EXPECT_EQ(std::string(e.what()), expected) << threads << " threads";
        }
    }
}

TEST(SweepRunner, AnEmptyItemListGivesAnEmptyReport) {
    engine::AnalysisSession session;
    for (const unsigned threads : {1u, 4u}) {
        const auto report =
            sweep::SweepRunner(session, {threads, {}}).run(table2_line2_ded(), {});
        EXPECT_TRUE(report.results.empty());
        EXPECT_EQ(report.unique_models, 0u);
        EXPECT_EQ(report.state_points, 0u);
        EXPECT_EQ(report.stats.compile_misses + report.stats.compile_hits, 0u);
    }
}
