// Unit tests: abstract interpretation (analysis/interval.hpp), the model
// linter (analysis/lint.hpp) with its planted-bug fixtures, expression byte
// offsets, and the golden that every shipped model lints clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/interval.hpp"
#include "analysis/lint.hpp"
#include "arcade/compiler.hpp"
#include "arcade/modules_compiler.hpp"
#include "arcade/xml_io.hpp"
#include "engine/session.hpp"
#include "expr/expr.hpp"
#include "prism/prism_parser.hpp"
#include "support/errors.hpp"
#include "sweep/paper.hpp"
#include "sweep/studies.hpp"
#include "watertree/watertree.hpp"

namespace analysis = arcade::analysis;
namespace core = arcade::core;
namespace engine = arcade::engine;
namespace expr = arcade::expr;
namespace modules = arcade::modules;
namespace prism = arcade::prism;
namespace sweep = arcade::sweep;
namespace watertree = arcade::watertree;

namespace {

analysis::LintReport lint_prism(const std::string& source) {
    prism::PrismParseInfo info;
    const auto system = prism::parse_prism(source, &info);
    analysis::LintOptions options;
    options.unused_formulas = std::move(info.unused_formulas);
    return analysis::lint(system, options);
}

/// Asserts the report holds exactly one diagnostic, with the given check ID
/// and severity; returns it for further inspection.
analysis::Diagnostic expect_single(const analysis::LintReport& report,
                                   const std::string& id,
                                   analysis::Severity severity) {
    EXPECT_EQ(report.diagnostics.size(), 1u) << report.to_string();
    if (report.diagnostics.size() != 1) return {};
    const auto& d = report.diagnostics.front();
    EXPECT_EQ(d.id, id) << d.to_string();
    EXPECT_EQ(static_cast<int>(d.severity), static_cast<int>(severity))
        << d.to_string();
    return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Abstract interpretation
// ---------------------------------------------------------------------------

TEST(Interval, LiteralAndIdentifier) {
    analysis::AbstractEnv env;
    env["x"] = analysis::AbstractValue::numeric(0, 3, true);
    const auto v = analysis::abstract_eval(expr::parse_expression("x + 1"), env);
    EXPECT_TRUE(v.has_numeric);
    EXPECT_EQ(v.lo, 1.0);
    EXPECT_EQ(v.hi, 4.0);
    EXPECT_TRUE(v.integral);
    EXPECT_FALSE(v.may_fail);
    EXPECT_FALSE(v.has_bool());

    // Unknown identifiers evaluate to top: anything, including failure.
    const auto t = analysis::abstract_eval(expr::parse_expression("mystery"), env);
    EXPECT_TRUE(t.has_numeric);
    EXPECT_TRUE(t.has_bool());
    EXPECT_TRUE(t.may_fail);
}

TEST(Interval, MultiplicationTakesCornerExtremes) {
    analysis::AbstractEnv env;
    env["x"] = analysis::AbstractValue::numeric(-2, 3, true);
    env["y"] = analysis::AbstractValue::numeric(-5, 1, true);
    const auto v = analysis::abstract_eval(expr::parse_expression("x * y"), env);
    EXPECT_EQ(v.lo, -15.0);  // 3 * -5
    EXPECT_EQ(v.hi, 10.0);   // -2 * -5
}

TEST(Interval, DivisionByIntervalContainingZeroMayFail) {
    analysis::AbstractEnv env;
    env["x"] = analysis::AbstractValue::numeric(0, 3, true);
    const auto v = analysis::abstract_eval(expr::parse_expression("1 / x"), env);
    EXPECT_TRUE(v.may_fail);  // x = 0 divides by zero
    EXPECT_TRUE(v.has_numeric);

    env["x"] = analysis::AbstractValue::numeric(1, 4, true);
    const auto w = analysis::abstract_eval(expr::parse_expression("1 / x"), env);
    EXPECT_FALSE(w.may_fail);
    EXPECT_EQ(w.lo, 0.25);
    EXPECT_EQ(w.hi, 1.0);
    EXPECT_FALSE(w.integral);  // 1/2 is not whole
}

TEST(Interval, ComparisonsAndBooleans) {
    analysis::AbstractEnv env;
    env["x"] = analysis::AbstractValue::numeric(0, 3, true);
    const auto lt = analysis::abstract_eval(expr::parse_expression("x < 2"), env);
    EXPECT_TRUE(lt.can_true);
    EXPECT_TRUE(lt.can_false);

    const auto always = analysis::abstract_eval(expr::parse_expression("x >= 0"), env);
    EXPECT_TRUE(always.can_true);
    EXPECT_FALSE(always.can_false);

    const auto never = analysis::abstract_eval(expr::parse_expression("x > 5"), env);
    EXPECT_FALSE(never.can_true);
    EXPECT_TRUE(never.can_false);
}

TEST(Interval, ShortCircuitAndSkipsUnreachableRhsFailure) {
    analysis::AbstractEnv env;
    env["x"] = analysis::AbstractValue::numeric(1, 2, true);
    // Lhs is provably false, so the failing rhs (numeric in a boolean
    // position) is never evaluated — exactly the concrete semantics.
    const auto v = analysis::abstract_eval(expr::parse_expression("x > 5 & x"), env);
    EXPECT_FALSE(v.can_true);
    EXPECT_TRUE(v.can_false);
    EXPECT_FALSE(v.may_fail);
}

TEST(Interval, RefineTightensByWholeUnits) {
    analysis::AbstractEnv env;
    env["s"] = analysis::AbstractValue::numeric(0, 2, true);
    env["q"] = analysis::AbstractValue::numeric(0, 5, true);
    const auto cond = expr::parse_expression("s = 1 & q > 1");
    const auto refined = analysis::refine(env, cond, true);
    EXPECT_EQ(refined.at("s").lo, 1.0);
    EXPECT_EQ(refined.at("s").hi, 1.0);
    EXPECT_EQ(refined.at("q").lo, 2.0);  // q > 1 over integers is q >= 2
    EXPECT_EQ(refined.at("q").hi, 5.0);

    // The watertree dequeue-shift pattern: q-1 under the refined env stays
    // inside the declared [0, 5].
    const auto shifted =
        analysis::abstract_eval(expr::parse_expression("q - 1"), refined);
    EXPECT_EQ(shifted.lo, 1.0);
    EXPECT_EQ(shifted.hi, 4.0);
}

TEST(Interval, RefineFalseAssumptionAndEmptyIntervals) {
    analysis::AbstractEnv env;
    env["x"] = analysis::AbstractValue::numeric(0, 3, true);
    // Assuming !(x < 2) leaves x in [2, 3].
    const auto refined =
        analysis::refine(env, expr::parse_expression("x < 2"), false);
    EXPECT_EQ(refined.at("x").lo, 2.0);
    EXPECT_EQ(refined.at("x").hi, 3.0);

    // An impossible assumption empties the interval entirely.
    const auto empty = analysis::refine(env, expr::parse_expression("x > 5"), true);
    EXPECT_FALSE(empty.at("x").has_numeric);
}

TEST(Interval, IteJoinsOnlyReachableBranches) {
    analysis::AbstractEnv env;
    env["x"] = analysis::AbstractValue::numeric(0, 3, true);
    const auto v = analysis::abstract_eval(
        expr::parse_expression("x > 0 ? x - 1 : x"), env);
    EXPECT_EQ(v.lo, 0.0);
    EXPECT_EQ(v.hi, 2.0);  // then: [0,2] under x in [1,3]; else: [0,0]
    EXPECT_FALSE(v.may_fail);
}

// ---------------------------------------------------------------------------
// Planted-bug fixtures: each triggers exactly one check
// ---------------------------------------------------------------------------

TEST(Lint, AR001UnknownIdentifier) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..3] init 0;
  [] x<3 & z>0 -> 1.0 : (x'=x+1);
endmodule
)"),
                                 "AR001", analysis::Severity::Error);
    EXPECT_NE(d.message.find("'z'"), std::string::npos) << d.to_string();
}

TEST(Lint, AR002UnsatisfiableGuard) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..3] init 0;
  [] x>5 -> 1.0 : (x'=0);
endmodule
)"),
                                 "AR002", analysis::Severity::Warning);
    EXPECT_NE(d.message.find("never satisfiable"), std::string::npos);
}

TEST(Lint, AR003OverlappingSynchronisedGuards) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..10] init 0;
  [step] x<5 -> 1.0 : (x'=x+1);
  [step] x>2 -> 1.0 : (x'=x-1);
endmodule
)"),
                                 "AR003", analysis::Severity::Warning);
    EXPECT_NE(d.message.find("witness: x=3"), std::string::npos) << d.to_string();
}

TEST(Lint, AR003NotRaisedForInterleavedOrDisjointGuards) {
    // Same commands, empty action: interleaved racing is legitimate CTMC
    // semantics.
    EXPECT_TRUE(lint_prism(R"(
ctmc
module m
  x : [0..10] init 0;
  [] x<5 -> 1.0 : (x'=x+1);
  [] x>2 -> 1.0 : (x'=x-1);
endmodule
)")
                    .clean());
    // Synchronised but disjoint guards are fine too.
    EXPECT_TRUE(lint_prism(R"(
ctmc
module m
  x : [0..10] init 0;
  [step] x<5 -> 1.0 : (x'=x+1);
  [step] x>6 -> 1.0 : (x'=x-1);
endmodule
)")
                    .clean());
}

TEST(Lint, AR004NegativeRate) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..3] init 0;
  [] x=2 -> (1-x) : (x'=1);
endmodule
)"),
                                 "AR004", analysis::Severity::Error);
    EXPECT_NE(d.message.find("evaluates to -1"), std::string::npos) << d.to_string();
    EXPECT_NE(d.message.find("witness: x=2"), std::string::npos);
}

TEST(Lint, AR004ZeroRateIsAWarning) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..3] init 0;
  [] x=2 -> (2-x) : (x'=1);
endmodule
)"),
                                 "AR004", analysis::Severity::Warning);
    EXPECT_NE(d.message.find("zero rate"), std::string::npos) << d.to_string();
}

TEST(Lint, AR005OutOfRangeAssignment) {
    const std::string source = R"(
ctmc
module m
  x : [0..3] init 0;
  [] x<3 -> 1.0 : (x'=x+2);
endmodule
)";
    const auto d =
        expect_single(lint_prism(source), "AR005", analysis::Severity::Error);
    EXPECT_NE(d.message.find("drives 'x' to 4"), std::string::npos) << d.to_string();
    EXPECT_NE(d.message.find("2-bit state field"), std::string::npos);
    EXPECT_NE(d.message.find("witness: x=2"), std::string::npos);
    // The diagnostic anchors at the assignment expression in the source.
    ASSERT_NE(d.offset, expr::Expr::npos);
    EXPECT_EQ(source.find("x+2"), d.offset);
}

TEST(Lint, AR006DeadAssignment) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 1.0 : (x'=x);
endmodule
)"),
                                 "AR006", analysis::Severity::Note);
    EXPECT_NE(d.message.find("no effect"), std::string::npos);
}

TEST(Lint, AR007UnusedVariable) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..1] init 0;
  y : [0..1] init 0;
  [] x=0 -> 1.0 : (x'=1);
endmodule
)"),
                                 "AR007", analysis::Severity::Warning);
    EXPECT_NE(d.message.find("never read"), std::string::npos);
    EXPECT_EQ(d.where, "variable 'y'");
}

TEST(Lint, AR008ConstantLabel) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 1.0 : (x'=1);
  [] x=1 -> 1.0 : (x'=0);
endmodule
label "always" = x>=0;
)"),
                                 "AR008", analysis::Severity::Note);
    EXPECT_NE(d.message.find("constantly true"), std::string::npos);
}

TEST(Lint, AR009ConstantExpressionThatAlwaysFails) {
    const auto d = expect_single(lint_prism(R"(
ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 1/0 : (x'=1);
endmodule
)"),
                                 "AR009", analysis::Severity::Error);
    EXPECT_NE(d.message.find("always fails"), std::string::npos) << d.to_string();
}

TEST(Lint, AR010UnusedFormula) {
    const auto d = expect_single(lint_prism(R"(
ctmc
formula spare = x>0;
module m
  x : [0..1] init 0;
  [] x=0 -> 1.0 : (x'=1);
endmodule
)"),
                                 "AR010", analysis::Severity::Warning);
    EXPECT_EQ(d.where, "formula 'spare'");
}

TEST(Lint, AR010SeesTransitiveFormulaUse) {
    // `base` is referenced only through `derived`, which a label uses:
    // neither is unused.
    EXPECT_TRUE(lint_prism(R"(
ctmc
formula base = x>0;
formula derived = base & x<2;
module m
  x : [0..2] init 0;
  [] x<2 -> 1.0 : (x'=x+1);
endmodule
label "mid" = derived;
)")
                    .clean());
}

TEST(Lint, CleanModelProducesNoDiagnostics) {
    EXPECT_TRUE(lint_prism(R"(
ctmc
const double lambda = 1/100;
module comp
  x : [0..1] init 0;
  b : bool init false;
  [] x=0 -> lambda : (x'=1) & (b'=true);
  [] x=1 -> 0.5 : (x'=0) & (b'=false);
endmodule
label "up" = x=0 & !b;
rewards "down"
  x=1 : 1;
endrewards
)")
                    .clean());
}

// ---------------------------------------------------------------------------
// Byte offsets
// ---------------------------------------------------------------------------

TEST(Offsets, ParserStampsByteOffsets) {
    EXPECT_EQ(expr::parse_expression("q").offset(), 0u);
    EXPECT_EQ(expr::parse_expression("q", {.offset = 42}).offset(), 42u);
    const auto sum = expr::parse_expression("  x + y", {.offset = 10});
    EXPECT_EQ(sum.offset(), 12u);  // at the expression, past the whitespace
}

TEST(Offsets, PrismGuardsPointIntoTheSource) {
    const std::string source = R"(
ctmc
module m
  x : [0..3] init 0;
  [] x<3 -> 1.0 : (x'=x+1);
endmodule
)";
    const auto system = prism::parse_prism(source);
    const auto& guard = system.modules.at(0).commands.at(0).guard;
    ASSERT_NE(guard.offset(), expr::Expr::npos);
    EXPECT_EQ(source.find("x<3"), guard.offset());
}

// ---------------------------------------------------------------------------
// Lint levels and report plumbing
// ---------------------------------------------------------------------------

TEST(LintLevel, ParsesAliases) {
    using analysis::LintLevel;
    EXPECT_EQ(analysis::parse_lint_level("off"), LintLevel::Off);
    EXPECT_EQ(analysis::parse_lint_level("0"), LintLevel::Off);
    EXPECT_EQ(analysis::parse_lint_level("WARN"), LintLevel::Warn);
    EXPECT_EQ(analysis::parse_lint_level("on"), LintLevel::Warn);
    EXPECT_FALSE(analysis::parse_lint_level("error").has_value());
    EXPECT_FALSE(analysis::parse_lint_level("strict").has_value());
    EXPECT_FALSE(analysis::parse_lint_level("bogus").has_value());
    EXPECT_EQ(analysis::lint_level_name(LintLevel::Off), "off");
    EXPECT_EQ(analysis::lint_level_name(LintLevel::Warn), "warn");
}

TEST(LintLevel, ReportCountsBySeverity) {
    const auto report = lint_prism(R"(
ctmc
module m
  x : [0..3] init 0;
  y : [0..1] init 0;
  [] x<3 -> 1.0 : (x'=x+2);
endmodule
)");
    // AR005 error (x+2 escapes) + AR007 warning (y unused).
    EXPECT_EQ(report.errors, 1);
    EXPECT_EQ(report.warnings, 1);
    EXPECT_EQ(report.notes, 0);
    EXPECT_EQ(report.diagnostics.size(), 2u);
    EXPECT_FALSE(report.clean());
}

// ---------------------------------------------------------------------------
// Watertree golden: every model a shipped grid compiles lints clean
// ---------------------------------------------------------------------------

namespace {

/// The model a sweep cell compiles, built the way sweep/runner.cpp's
/// compile_item builds it: line, strategy, parameter set and pump scale,
/// with the repair units stripped for reliability and strip_repair
/// properties (and for repair-free variants).
core::ArcadeModel cell_model(const sweep::ScenarioGrid& grid, const sweep::WorkItem& item) {
    const bool with_repair =
        item.variant.repair && item.measure.kind != sweep::MeasureKind::Reliability &&
        !(item.measure.kind == sweep::MeasureKind::Property && item.measure.strip_repair);
    auto model = watertree::line(item.line, watertree::strategy(item.strategy),
                                 grid.parameters[item.parameter_index].params,
                                 item.scale.extra_pumps);
    return with_repair ? model : core::without_repair(model);
}

}  // namespace

TEST(WatertreeLint, EveryShippedModelLintsClean) {
    // arcade::compile runs no linter, so this golden is what keeps the
    // shipped models and their translation lint-clean.  Every unique model
    // of every shipped grid must translate and lint with no findings at
    // all, and so must its Arcade-XML round trip.  The translation does not
    // depend on the encoding, so one pass covers both.
    namespace paper = sweep::paper;
    namespace studies = sweep::studies;
    const std::vector<sweep::ScenarioGrid> grids = {
        paper::everything(),          paper::properties(),
        paper::table1(),              paper::fig3(),
        studies::ablation_encodings(), studies::ablation_preemption(),
        studies::ablation_preemption_sizes(), studies::mttr_sensitivity(),
        studies::pump_scaling()};
    std::set<std::uint64_t> seen;
    std::set<std::string> not_translatable;
    std::size_t clean = 0;
    for (const auto& grid : grids) {
        for (const auto& item : sweep::expand(grid)) {
            const auto model = cell_model(grid, item);
            if (!seen.insert(engine::fingerprint(model)).second) continue;
            const std::string label = "line " + std::to_string(item.line) + " " +
                                      item.strategy + " (" + item.model_key() + ")";
            modules::ModuleSystem system;
            try {
                system = core::to_reactive_modules(model);
            } catch (const arcade::ModelError&) {
                not_translatable.insert("L" + std::to_string(item.line) + " " +
                                        item.strategy);
                continue;
            }
            const auto report = analysis::lint(system);
            EXPECT_EQ(report.errors, 0) << label << ":\n" << report.to_string();
            EXPECT_EQ(report.warnings, 0) << label << ":\n" << report.to_string();
            EXPECT_EQ(report.notes, 0) << label << ":\n" << report.to_string();
            const auto round_trip = analysis::lint(
                core::to_reactive_modules(core::model_from_xml(core::model_to_xml(model))));
            EXPECT_EQ(round_trip.to_string(), report.to_string()) << label;
            if (report.clean()) ++clean;
        }
    }
    // Preemptive repair has no reactive-modules translation; only the
    // line-2 preemption ablation ships such models.
    EXPECT_EQ(not_translatable, (std::set<std::string>{"L2 FFF-1-pre", "L2 FFF-2-pre",
                                                       "L2 FRF-1-pre", "L2 FRF-2-pre"}));
    EXPECT_EQ(clean, 58u);  // 62 unique models: 58 translate, 4 do not
}

TEST(WatertreeLint, CompileOptionsLintIsInert) {
    // arcade::compile runs no lint stage, so the level must not split the
    // session's compile cache.
    engine::AnalysisSession session;
    const auto model = watertree::line(2, watertree::strategy("DED"));
    core::CompileOptions options;
    options.encoding = core::Encoding::Lumped;
    options.lint = analysis::LintLevel::Off;
    const auto first = session.compile(model, options);
    options.lint = analysis::LintLevel::Warn;
    const auto second = session.compile(model, options);
    EXPECT_EQ(first, second);
    EXPECT_EQ(session.stats().compile_misses, 1u);
    EXPECT_EQ(session.stats().compile_hits, 1u);
}
