// Unit tests: CSL/CSRL parser and model checker — plus the canonical
// printer (print -> parse round trips, over every formula in the
// watertree::properties pack), formula fingerprints, byte-offset parse
// errors, and the InvalidArgument threshold taxonomy.
#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/ctmc.hpp"
#include "logic/csl.hpp"
#include "support/errors.hpp"
#include "watertree/properties.hpp"

namespace logic = arcade::logic;
namespace ctmc = arcade::ctmc;
namespace la = arcade::linalg;

namespace {

/// Two-state availability chain with labels and a cost reward.
struct Fixture {
    ctmc::Ctmc chain;
    logic::CheckerOptions options;

    static Fixture make(double l = 0.5, double m = 2.0) {
        la::CsrBuilder b(2, 2);
        b.add(0, 1, l);
        b.add(1, 0, m);
        ctmc::Ctmc chain(b.build(), {1.0, 0.0});
        chain.set_label("up", {true, false});
        chain.set_label("down", {false, true});
        logic::CheckerOptions options;
        options.reward_structures.emplace(
            "cost", arcade::rewards::RewardStructure("cost", {0.0, 3.0}));
        return Fixture{std::move(chain), std::move(options)};
    }
};

}  // namespace

TEST(Csl, BoundedUntilQueryMatchesClosedForm) {
    const auto f = Fixture::make();
    // P(fail by t) from up = 1 - closed-form p_up with ONLY failure... no:
    // true U<=t down on the transformed chain (down absorbing): first-passage
    // time is exp(l): P = 1 - e^{-l t}.
    const auto result = logic::check(f.chain, "P=? [ true U<=2 \"down\" ]", f.options);
    ASSERT_TRUE(result.value.has_value());
    EXPECT_NEAR(*result.value, 1.0 - std::exp(-0.5 * 2.0), 1e-10);
}

TEST(Csl, FIsSugarForTrueUntil) {
    const auto f = Fixture::make();
    const auto a = logic::check(f.chain, "P=? [ F<=2 \"down\" ]", f.options);
    const auto b = logic::check(f.chain, "P=? [ true U<=2 \"down\" ]", f.options);
    EXPECT_NEAR(*a.value, *b.value, 1e-12);
}

TEST(Csl, GloballyIsDualOfFinally) {
    const auto f = Fixture::make();
    const auto g = logic::check(f.chain, "P=? [ G<=2 \"up\" ]", f.options);
    const auto fd = logic::check(f.chain, "P=? [ F<=2 \"down\" ]", f.options);
    EXPECT_NEAR(*g.value + *fd.value, 1.0, 1e-10);
}

TEST(Csl, NestedGloballyAppliesDualityAtItsOwnOperator) {
    const auto f = Fixture::make();
    // A G nested under another operator must desugar at ITS OWN P node:
    // P>=p [G<=t f]  ==  P<=1-p [true U<=t !f], with every enclosing bound
    // untouched (regression: a parser-global flag used to flip the outer
    // bound instead and leave the nested one inverted).
    const auto nested =
        logic::check(f.chain, "S=? [ P>=0.5 [ G<=2 \"up\" ] ]", f.options);
    const auto nested_dual =
        logic::check(f.chain, "S=? [ P<=0.5 [ true U<=2 !\"up\" ] ]", f.options);
    EXPECT_NEAR(*nested.value, *nested_dual.value, 1e-12);

    const auto outer = logic::check(
        f.chain, "P=? [ true U<=5 P>=0.25 [ G<=2 \"up\" ] ]", f.options);
    const auto outer_dual = logic::check(
        f.chain, "P=? [ true U<=5 P<=0.75 [ true U<=2 !\"up\" ] ]", f.options);
    EXPECT_NEAR(*outer.value, *outer_dual.value, 1e-12);

    // And a conjunction where only one side holds a G.
    const auto mixed = logic::check(
        f.chain, "P>=0.9 [ true U<=3 \"up\" ] & P>=0.25 [ G<=2 \"up\" ]", f.options);
    const auto mixed_dual = logic::check(
        f.chain, "P>=0.9 [ true U<=3 \"up\" ] & P<=0.75 [ true U<=2 !\"up\" ]",
        f.options);
    EXPECT_EQ(mixed.satisfaction, mixed_dual.satisfaction);
}

TEST(Csl, UnboundedUntil) {
    const auto f = Fixture::make();
    // down is eventually reached with probability 1 in this chain.
    const auto result = logic::check(f.chain, "P=? [ true U \"down\" ]", f.options);
    EXPECT_NEAR(*result.value, 1.0, 1e-9);
}

TEST(Csl, NextOperator) {
    // 0 -> 1 rate 1, 0 -> 2 rate 3: P(X "two") = 3/4.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(0, 2, 3.0);
    ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    chain.set_label("two", {false, false, true});
    const auto result = logic::check(chain, "P=? [ X \"two\" ]");
    EXPECT_NEAR(*result.value, 0.75, 1e-12);
}

TEST(Csl, SteadyStateQueryAndBound) {
    const auto f = Fixture::make(0.5, 2.0);
    const auto q = logic::check(f.chain, "S=? [ \"up\" ]", f.options);
    EXPECT_NEAR(*q.value, 2.0 / 2.5, 1e-9);
    EXPECT_TRUE(*logic::check(f.chain, "S>=0.7 [ \"up\" ]", f.options).holds);
    EXPECT_FALSE(*logic::check(f.chain, "S>=0.9 [ \"up\" ]", f.options).holds);
}

TEST(Csl, ProbabilityBoundsEvaluatePerState) {
    const auto f = Fixture::make();
    // From "down", recovery within 1h has probability 1-e^{-2} ~ 0.86.
    const auto result =
        logic::check(f.chain, "P>=0.8 [ true U<=1 \"up\" ]", f.options);
    ASSERT_EQ(result.satisfaction.size(), 2u);
    EXPECT_TRUE(result.satisfaction[0]);  // already up: trivially satisfied
    EXPECT_TRUE(result.satisfaction[1]);
    const auto strict =
        logic::check(f.chain, "P>=0.99 [ true U<=1 \"up\" ]", f.options);
    EXPECT_FALSE(strict.satisfaction[1]);
}

TEST(Csrl, InstantaneousAndCumulativeRewards) {
    const auto f = Fixture::make(0.5, 2.0);
    const double t = 1.5;
    const double s = 2.5;
    const double p_down = 0.5 / s * (1.0 - std::exp(-s * t));
    const auto inst = logic::check(f.chain, "R{\"cost\"}=? [ I=1.5 ]", f.options);
    EXPECT_NEAR(*inst.value, 3.0 * p_down, 1e-9);

    const double integral = 0.5 / s * (t - (1.0 - std::exp(-s * t)) / s);
    const auto cum = logic::check(f.chain, "R{\"cost\"}=? [ C<=1.5 ]", f.options);
    EXPECT_NEAR(*cum.value, 3.0 * integral, 1e-9);
}

TEST(Csrl, SteadyStateReward) {
    const auto f = Fixture::make(0.5, 2.0);
    const auto result = logic::check(f.chain, "R{\"cost\"}=? [ S ]", f.options);
    EXPECT_NEAR(*result.value, 3.0 * 0.5 / 2.5, 1e-9);
}

TEST(Csl, BooleanConnectivesOverLabels) {
    const auto f = Fixture::make();
    EXPECT_TRUE(*logic::check(f.chain, "\"up\" | \"down\"", f.options).holds);
    EXPECT_TRUE(*logic::check(f.chain, "!(\"up\" & \"down\")", f.options).holds);
    // initial state is up
    EXPECT_TRUE(*logic::check(f.chain, "\"up\"", f.options).holds);
    EXPECT_FALSE(*logic::check(f.chain, "\"down\"", f.options).holds);
}

TEST(Csl, NestedProbabilisticOperators) {
    const auto f = Fixture::make();
    // states from which quick recovery is likely — used as an until target
    const auto result = logic::check(
        f.chain, "P=? [ true U<=10 ( \"down\" & P>=0.5 [ true U<=1 \"up\" ] ) ]",
        f.options);
    EXPECT_GT(*result.value, 0.9);
}

TEST(Csl, ParseErrors) {
    EXPECT_THROW(logic::parse_csl("P=? [ true U ]"), arcade::ParseError);
    EXPECT_THROW(logic::parse_csl("P [ F \"x\" ]"), arcade::ParseError);
    EXPECT_THROW(logic::parse_csl("R=? [ X=1 ]"), arcade::ParseError);
    EXPECT_THROW(logic::parse_csl("P=? [ F \"x\" ] trailing"), arcade::ParseError);
}

TEST(Csl, ParseErrorsReportByteOffsets) {
    const auto offset_in = [](const std::string& text) -> std::string {
        try {
            (void)logic::parse_csl(text);
        } catch (const arcade::ParseError& e) {
            const std::string what = e.what();
            const auto at = what.find("byte offset ");
            if (at == std::string::npos) return "";
            return what.substr(at + 12);
        }
        return "";
    };
    // Offset of the offending token, not of the whole formula.
    EXPECT_EQ(offset_in("P [ F \"x\" ]"), "2");             // bound expected at '['
    EXPECT_EQ(offset_in("P=? [ true U ]"), "13");          // rhs label expected at ']'
    EXPECT_EQ(offset_in("P=? [ F \"x\" ] junk"), "14");    // trailing input at 'junk'
    EXPECT_EQ(offset_in("S=? [ \"unterminated ]"), "6");   // the opening quote
    EXPECT_EQ(offset_in("P<=x [ F \"a\" ]"), "3");         // number expected at 'x'
}

TEST(Csl, DeepNestingThrowsParseErrorInsteadOfOverflowingTheStack) {
    // 100000 nested parentheses or negations: the parser stops at its
    // nesting bound (256) and names the byte offset where it stopped.
    const std::size_t deep = 100000;
    for (const std::string& text :
         {std::string(deep, '(') + "true" + std::string(deep, ')'),
          std::string(deep, '!') + "true"}) {
        try {
            (void)logic::parse_csl(text);
            ADD_FAILURE() << "no ParseError for " << text.substr(0, 8) << "...";
        } catch (const arcade::ParseError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("nested deeper than 256 levels at byte offset 256"),
                      std::string::npos)
                << what;
        }
    }
    // Nesting below the bound still parses.
    EXPECT_NO_THROW((void)logic::parse_csl(std::string(200, '(') + "true" +
                                           std::string(200, ')')));
}

TEST(Csl, MalformedThresholdsThrowInvalidArgument) {
    const auto f = Fixture::make();
    // Probability bounds outside [0, 1] are caller mistakes, not model
    // defects: InvalidArgument, matching the library-wide taxonomy.
    EXPECT_THROW((void)logic::check(f.chain, "P>=1.5 [ F<=1 \"up\" ]", f.options),
                 arcade::InvalidArgument);
    EXPECT_THROW((void)logic::check(f.chain, "S<=-0.25 [ \"up\" ]", f.options),
                 arcade::InvalidArgument);
    EXPECT_THROW((void)logic::check(f.chain, "P=? [ true U<=-3 \"down\" ]", f.options),
                 arcade::InvalidArgument);
    EXPECT_THROW((void)logic::check(f.chain, "R{\"cost\"}>=-1 [ S ]", f.options),
                 arcade::InvalidArgument);

    logic::CheckerOptions bad = f.options;
    bad.epsilon = 0.0;
    EXPECT_THROW((void)logic::check(f.chain, "\"up\"", bad), arcade::InvalidArgument);
    bad.epsilon = 2.0;
    EXPECT_THROW((void)logic::check(f.chain, "\"up\"", bad), arcade::InvalidArgument);
}

TEST(Csl, PrintParseRoundTripsOnPaperPropertyPack) {
    // Print -> parse -> print must be the identity for every formula the
    // watertree property pack ships (G re-parses via its Until desugaring).
    for (const auto& property : arcade::watertree::properties::paper_pack()) {
        const auto parsed = logic::parse_csl(property.formula);
        const std::string printed = logic::to_string(*parsed);
        const auto reparsed = logic::parse_csl(printed);
        EXPECT_EQ(logic::to_string(*reparsed), printed) << property.name;
        EXPECT_EQ(logic::fingerprint(*reparsed), logic::fingerprint(*parsed))
            << property.name;
    }
}

TEST(Csl, PrintParseRoundTripsOnNestedFormulas) {
    for (const char* text : {
             "P>=0.5 [ (\"up\" | \"down\") U<=2.5 !\"down\" ]",
             "P=? [ X (\"up\" & P>0.25 [ true U \"down\" ]) ]",
             "S>=0.75 [ P>=0.5 [ true U<=1 \"up\" ] ]",
             "R{\"cost\"}<=3 [ I=1.5 ]",
             "P=? [ G<=2 \"up\" ]",
         }) {
        const auto parsed = logic::parse_csl(text);
        const std::string printed = logic::to_string(*parsed);
        EXPECT_EQ(logic::to_string(*logic::parse_csl(printed)), printed) << text;
    }
}

TEST(Csl, FingerprintSeparatesFormulasAndStreams) {
    const auto a = logic::parse_csl("P=? [ true U<=2 \"down\" ]");
    const auto b = logic::parse_csl("P=? [ true U<=3 \"down\" ]");
    EXPECT_NE(logic::fingerprint(*a), logic::fingerprint(*b));
    EXPECT_EQ(logic::fingerprint(*a), logic::fingerprint(*logic::parse_csl(
                                          "P=? [ true U<=2 \"down\" ]")));
    // Independent hash streams back the double-keyed property cache.
    EXPECT_NE(logic::fingerprint(*a, 0), logic::fingerprint(*a, 1));
}

TEST(Csl, UnknownLabelAndRewardErrors) {
    const auto f = Fixture::make();
    EXPECT_THROW(logic::check(f.chain, "\"nonexistent\"", f.options), arcade::ModelError);
    EXPECT_THROW(logic::check(f.chain, "R{\"missing\"}=? [ S ]", f.options),
                 arcade::ModelError);
}
