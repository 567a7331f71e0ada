// Unit tests: PRISM-language parser and writer (round trip).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "ctmc/steady_state.hpp"
#include "expr/expr.hpp"
#include "logic/csl.hpp"
#include "modules/explorer.hpp"
#include "prism/prism_parser.hpp"
#include "prism/prism_writer.hpp"
#include "support/errors.hpp"

namespace prism = arcade::prism;
namespace modules = arcade::modules;

namespace {

const char* kTwoComponentModel = R"(
// availability model with shared repair
ctmc

const double lambda = 1/100;
const double mu = 0.5;
const int N = 2;

formula both_up = x=0 & y=0;

module comp_x
  x : [0..1] init 0;
  [] x=0 -> lambda : (x'=1);
  [] x=1 -> mu : (x'=0);
endmodule

module comp_y
  y : [0..1] init 0;
  [] y=0 -> 2*lambda : (y'=1);
  [] y=1 -> mu : (y'=0);
endmodule

label "up" = both_up;
label "deg" = x+y = 1;

rewards "downtime"
  !both_up : 1;
endrewards
)";

}  // namespace

TEST(PrismParser, ParsesConstantsFormulasModulesLabelsRewards) {
    const auto sys = prism::parse_prism(kTwoComponentModel);
    EXPECT_EQ(sys.modules.size(), 2u);
    EXPECT_EQ(sys.constants.size(), 3u);
    EXPECT_NEAR(sys.constants.at("lambda").as_double(), 0.01, 1e-15);
    EXPECT_EQ(sys.constants.at("N").as_int(), 2);
    EXPECT_EQ(sys.labels.size(), 2u);
    EXPECT_EQ(sys.rewards.size(), 1u);

    const auto explored = modules::explore(sys);
    EXPECT_EQ(explored.chain.state_count(), 4u);
    EXPECT_EQ(explored.chain.transition_count(), 8u);
    // closed-form availability of the two independent components
    const double ax = 0.5 / (0.5 + 0.01);
    const double ay = 0.5 / (0.5 + 0.02);
    EXPECT_NEAR(arcade::ctmc::steady_state_probability(explored.chain,
                                                       explored.chain.label("up")),
                ax * ay, 1e-9);
}

TEST(PrismParser, SynchronisedActions) {
    const char* text = R"(
ctmc
module a
  x : [0..1] init 0;
  [tick] x=0 -> 2 : (x'=1);
endmodule
module b
  y : [0..1] init 0;
  [tick] y=0 -> 3 : (y'=1);
endmodule
)";
    const auto explored = modules::explore(prism::parse_prism(text));
    EXPECT_EQ(explored.chain.state_count(), 2u);
    EXPECT_NEAR(explored.chain.rates().at(0, 1), 6.0, 1e-12);
}

TEST(PrismParser, BoolVariablesAndTrueUpdates) {
    const char* text = R"(
ctmc
module m
  b : bool init false;
  [] !b -> 1.5 : (b'=true);
  [] b -> 1 : true;
endmodule
)";
    const auto explored = modules::explore(prism::parse_prism(text));
    EXPECT_EQ(explored.chain.state_count(), 2u);
    // "true" update is a rate self-loop, dropped in the CTMC
    EXPECT_EQ(explored.chain.transition_count(), 1u);
}

TEST(PrismParser, ProbabilisticAlternativesWithPlus) {
    const char* text = R"(
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1 : (x'=1) + 3 : (x'=2);
endmodule
)";
    const auto explored = modules::explore(prism::parse_prism(text));
    EXPECT_NEAR(explored.chain.rates().at(0, 1), 1.0, 1e-12);
    EXPECT_NEAR(explored.chain.rates().at(0, 2), 3.0, 1e-12);
}

TEST(PrismParser, MalformedInputsAreParseErrors) {
    // missing semicolon after the init clause
    EXPECT_THROW(prism::parse_prism("ctmc\nmodule m\n  x : [0..1] init 0\nendmodule\n"),
                 arcade::ParseError);
    EXPECT_THROW(prism::parse_prism("dtmc\n"), arcade::ParseError);      // wrong model type
    EXPECT_THROW(prism::parse_prism("ctmc\nmodule m\n"), arcade::ParseError);  // unterminated
    // unterminated label string
    EXPECT_THROW(prism::parse_prism("ctmc\nlabel \"up = true;\n"), arcade::ParseError);
}

TEST(PrismParser, MissingSemicolonErrorsMentionLocation) {
    try {
        (void)prism::parse_prism("ctmc\nmodule m\n  x : [0..1] init 0\nendmodule\n");
        FAIL() << "expected ParseError";
    } catch (const arcade::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
    }
}

TEST(PrismParser, ExpressionErrorsReportTheFilesLineAndColumn) {
    const struct {
        const char* text;
        std::size_t line;
        std::size_t column;
    } cases[] = {
        // The second '=' of a guard on line 4.
        {"ctmc\nmodule m\n  x : [0..1] init 0;\n  [] x = = 0 -> 1 : (x'=1);\nendmodule\n", 4,
         10},
        // A character the expression syntax lacks, on the second line of a
        // guard that starts on line 4.
        {"ctmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 &\n     x $ 1 -> 1 : (x'=1);\n"
         "endmodule\n",
         5, 8},
        // A rate naming an unknown function, after a multi-line module.
        {"ctmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> 1 : (x'=1);\n"
         "  [] x=1 -> sqrt(2) : (x'=0);\nendmodule\n",
         5, 13},
    };
    for (const auto& c : cases) {
        try {
            (void)prism::parse_prism(c.text);
            ADD_FAILURE() << "expected ParseError for " << c.text;
        } catch (const arcade::ParseError& e) {
            EXPECT_EQ(e.line(), c.line) << e.what();
            EXPECT_EQ(e.column(), c.column) << e.what();
        }
    }
}

namespace {

/// Parses `text`, which defines one name twice: the ParseError must name
/// it (`message`) and point at the second definition's name.
void expect_redefinition_error(const std::string& text, const std::string& message,
                               std::size_t line, std::size_t column) {
    try {
        (void)prism::parse_prism(text);
        ADD_FAILURE() << "expected ParseError for " << text;
    } catch (const arcade::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_EQ(e.column(), column) << e.what();
    }
}

}  // namespace

TEST(PrismParser, RedefinedConstantIsAParseError) {
    expect_redefinition_error("ctmc\nconst int k = 1;\nconst int k = 2;\n",
                              "duplicate constant 'k'", 3, 11);
}

TEST(PrismParser, RedefinedFormulaIsAParseError) {
    expect_redefinition_error("ctmc\nformula f = 1;\nformula f = 2;\nconst int k = f;\n",
                              "duplicate formula 'f'", 3, 9);
}

TEST(PrismParser, RedefinedLabelIsAParseError) {
    expect_redefinition_error("ctmc\nlabel \"up\" = true;\nlabel \"up\" = false;\n",
                              "duplicate label 'up'", 3, 7);
}

TEST(PrismParser, RedefinedModuleIsAParseError) {
    expect_redefinition_error(
        "ctmc\nmodule m\n  x : [0..1] init 0;\nendmodule\n"
        "module m\n  y : [0..1] init 0;\nendmodule\n",
        "duplicate module 'm'", 5, 8);
}

TEST(PrismParser, RedefinedVariableIsAParseErrorAcrossModules) {
    expect_redefinition_error(
        "ctmc\nmodule a\n  x : [0..1] init 0;\nendmodule\n"
        "module b\n  x : bool init false;\nendmodule\n",
        "duplicate variable 'x'", 6, 3);
}

TEST(PrismParser, RedefinedRewardStructureIsAParseError) {
    expect_redefinition_error(
        "ctmc\nrewards \"r\"\n  true : 1;\nendrewards\nrewards \"r\"\n  true : 2;\nendrewards\n",
        "duplicate reward structure 'r'", 5, 9);
}

TEST(PrismParser, FormulasMayReferToFormulasDefinedLater) {
    const auto sys = prism::parse_prism(R"(ctmc
formula a = b + 1;
formula b = 2 * x;
module m
  x : [0..1] init 0;
  [] x=0 -> 1 : (x'=1);
endmodule
label "l" = a = 3;
)");
    const auto explored = modules::explore(sys);
    EXPECT_EQ(explored.chain.label("l"), (std::vector<bool>{false, true}));
}

TEST(PrismParser, CyclicFormulasAreParseErrorsAtTheCycle) {
    // b expands to a, whose body names b again: the error points at that b
    // (byte 17, line 2, column 13).
    try {
        (void)prism::parse_prism(
            "ctmc\nformula a = b;\nformula b = a;\nlabel \"l\" = b > 0;\n");
        ADD_FAILURE() << "expected ParseError";
    } catch (const arcade::ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("b -> a -> b"), std::string::npos) << what;
        EXPECT_NE(what.find("byte offset 17"), std::string::npos) << what;
        EXPECT_EQ(e.line(), 2u) << what;
        EXPECT_EQ(e.column(), 13u) << what;
    }
    EXPECT_THROW((void)prism::parse_prism("ctmc\nformula a = a + 1;\nconst int k = a;\n"),
                 arcade::ParseError);
    // A cycle nothing uses is never expanded.
    EXPECT_NO_THROW((void)prism::parse_prism("ctmc\nformula a = b;\nformula b = a;\n"));
}

TEST(PrismParser, FormulaExpansionIsBounded) {
    // f_i = f_{i-1} + f_{i-1} doubles at every definition: f_k expands to
    // 2^(k+1) - 1 nodes.  Expanding f_22 for the label passes the bound, and
    // the error names f_22's body.
    const auto doubling = [](int k) {
        std::string text = "ctmc\nmodule m\n  x : [0..1] init 0;\nendmodule\nformula f0 = x;\n";
        std::size_t last_body = 0;
        for (int i = 1; i <= k; ++i) {
            const std::string previous = 'f' + std::to_string(i - 1);
            text += "formula f";
            text += std::to_string(i);
            text += " = ";
            last_body = text.size();
            text += previous + " + " + previous + ";\n";
        }
        text += "label \"l\" = f";
        text += std::to_string(k);
        text += " > 0;\n";
        return std::pair{text, last_body};
    };
    const auto [small, small_body] = doubling(10);
    EXPECT_NO_THROW((void)prism::parse_prism(small));
    const auto [large, large_body] = doubling(22);
    try {
        (void)prism::parse_prism(large);
        ADD_FAILURE() << "expected ParseError";
    } catch (const arcade::ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("formula 'f22'"), std::string::npos) << what;
        EXPECT_NE(what.find("byte offset " + std::to_string(large_body)), std::string::npos)
            << what;
    }

    // A chain g_i = g_{i-1} + 1 grows one level per formula; 2000 levels are
    // refused before they can overflow a recursive walk.
    std::string deep = "ctmc\nmodule m\n  x : [0..1] init 0;\nendmodule\nformula g0 = x;\n";
    for (int i = 1; i <= 2000; ++i) {
        deep += "formula g" + std::to_string(i) + " = g" + std::to_string(i - 1) + " + 1;\n";
    }
    deep += "label \"l\" = g2000 > 0;\n";
    try {
        (void)prism::parse_prism(deep);
        ADD_FAILURE() << "expected ParseError";
    } catch (const arcade::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("deeper than"), std::string::npos) << e.what();
    }
}

TEST(PrismParser, LongExpressionChainsThrowParseErrorPastTheTreeBound) {
    // The label "x+x+...+x > 0" with n terms is n+1 levels deep.  Every walk
    // over it (formula expansion, interval analysis, the VM compile, the
    // checker, destruction) recurses once per level; 100000 terms used to
    // overflow the stack of arcade_lint.
    const std::size_t bound = arcade::expr::kMaxTreeDepth;
    const auto model = [](std::size_t terms) {
        std::string text =
            "ctmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> 1.0 : (x'=1);\n"
            "  [] x=1 -> 2.0 : (x'=0);\nendmodule\nlabel \"l\" = x";
        for (std::size_t i = 1; i < terms; ++i) text += "+x";
        return text + " > 0;\n";
    };
    // Exactly at the bound: parses, lints, explores and checks.
    const auto system = prism::parse_prism(model(bound - 1));
    EXPECT_NO_THROW((void)arcade::analysis::lint(system));
    const auto explored = modules::explore(system);
    EXPECT_EQ(explored.chain.label("l"), (std::vector<bool>{false, true}));
    const auto result = arcade::logic::check(explored.chain, "S=? [ \"l\" ]");
    ASSERT_TRUE(result.value.has_value());
    EXPECT_NEAR(*result.value, 1.0 / 3.0, 1e-12);
    // One level more fails (at the '>'); a longer sum fails at the bound's
    // '+' on line 7 (the label text starts at column 13; the k-th '+' is
    // 2k columns on).
    EXPECT_THROW((void)prism::parse_prism(model(bound)), arcade::ParseError);
    for (const std::size_t terms : {bound + 1, std::size_t{100000}}) {
        try {
            (void)prism::parse_prism(model(terms));
            ADD_FAILURE() << "no ParseError for " << terms << " terms";
        } catch (const arcade::ParseError& e) {
            EXPECT_EQ(e.line(), 7u) << e.what();
            EXPECT_EQ(e.column(), 12 + 2 * bound) << e.what();
        }
    }
    // Formula expansion may not deepen a tree past the bound either: the
    // same label over the two-level formula f parses at the bound and
    // expands one level past it.
    std::string sum_of_f = model(2);
    sum_of_f.replace(sum_of_f.find("label"), std::string::npos, "formula f = x+1;\nlabel \"l\" = f");
    for (std::size_t i = 2; i < bound; ++i) sum_of_f += "+f";
    sum_of_f += " > 0;\n";
    try {
        (void)prism::parse_prism(sum_of_f);
        ADD_FAILURE() << "no ParseError for an expansion past the bound";
    } catch (const arcade::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("formula 'f' expands deeper than " +
                                             std::to_string(bound) + " levels"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PrismWriter, RoundTripPreservesSemantics) {
    const auto sys = prism::parse_prism(kTwoComponentModel);
    const std::string text = prism::write_prism(sys);
    const auto sys2 = prism::parse_prism(text);
    const auto a = modules::explore(sys);
    const auto b = modules::explore(sys2);
    ASSERT_EQ(a.chain.state_count(), b.chain.state_count());
    ASSERT_EQ(a.chain.transition_count(), b.chain.transition_count());
    EXPECT_NEAR(arcade::ctmc::steady_state_probability(a.chain, a.chain.label("up")),
                arcade::ctmc::steady_state_probability(b.chain, b.chain.label("up")),
                1e-10);
    // rewards survive the round trip
    EXPECT_EQ(b.reward_structures.count("downtime"), 1u);
}

TEST(PrismWriter, RoundTripsALongLabel) {
    // A 300-term sum prints as one parenthesised chain, not 299 nested
    // pairs of parentheses past the parser's nesting bound of 256.
    std::string text =
        "ctmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> 1.0 : (x'=1);\n"
        "  [] x=1 -> 2.0 : (x'=0);\nendmodule\nlabel \"l\" = x";
    for (int i = 1; i < 300; ++i) text += "+x";
    text += " > 0;\n";
    const auto sys = prism::parse_prism(text);
    const auto sys2 = prism::parse_prism(prism::write_prism(sys));
    EXPECT_EQ(sys2.labels.at("l").to_string(), sys.labels.at("l").to_string());
    EXPECT_EQ(modules::explore(sys2).chain.label("l"), (std::vector<bool>{false, true}));
}

TEST(PrismWriter, EmitsParsableGuardsWithArrowsAndMinus) {
    // guards containing '-' and nested parens must survive
    const char* text = R"(
ctmc
const int N = 3;
module m
  x : [0..3] init 0;
  [] x < N - 1 -> 1 : (x'=x+1);
  [] x > 0 -> 2 : (x'=x-1);
endmodule
)";
    const auto sys = prism::parse_prism(text);
    const auto sys2 = prism::parse_prism(prism::write_prism(sys));
    EXPECT_EQ(modules::explore(sys).chain.state_count(),
              modules::explore(sys2).chain.state_count());
}
