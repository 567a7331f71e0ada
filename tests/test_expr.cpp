// Unit tests: expression AST, parser and evaluator.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "expr/expr.hpp"
#include "support/errors.hpp"

namespace expr = arcade::expr;

namespace {

class MapEnv final : public expr::Environment {
public:
    std::map<std::string, expr::Value> values;
    [[nodiscard]] expr::Value lookup(const std::string& name) const override {
        const auto it = values.find(name);
        if (it == values.end()) throw arcade::ModelError("unknown " + name);
        return it->second;
    }
};

expr::Value eval(const std::string& text, const MapEnv& env = {}) {
    return expr::parse_expression(text).evaluate(env);
}

}  // namespace

TEST(ExprParser, ArithmeticPrecedence) {
    EXPECT_EQ(eval("1 + 2 * 3").as_int(), 7);
    EXPECT_EQ(eval("(1 + 2) * 3").as_int(), 9);
    EXPECT_EQ(eval("10 - 4 - 3").as_int(), 3);  // left assoc
    EXPECT_NEAR(eval("7 / 2").as_double(), 3.5, 1e-15);  // PRISM: / is real division
    EXPECT_EQ(eval("-3 + 5").as_int(), 2);
    EXPECT_EQ(eval("2 * -3").as_int(), -6);
}

TEST(ExprParser, IntegersStayIntegersDoublesInfect) {
    EXPECT_TRUE(eval("2 + 3").is_int());
    EXPECT_TRUE(eval("2 + 3.0").is_double());
    EXPECT_TRUE(eval("2.5").is_double());
    EXPECT_TRUE(eval("1e3").is_double());
    EXPECT_NEAR(eval("1e3").as_double(), 1000.0, 1e-12);
}

TEST(ExprParser, BooleanOperatorsAndPrecedence) {
    EXPECT_TRUE(eval("true | false & false").as_bool());   // & binds tighter
    EXPECT_FALSE(eval("(true | false) & false").as_bool());
    EXPECT_TRUE(eval("!false").as_bool());
    EXPECT_TRUE(eval("false => true").as_bool());
    EXPECT_TRUE(eval("true <=> true").as_bool());
    EXPECT_FALSE(eval("true <=> false").as_bool());
}

TEST(ExprParser, Comparisons) {
    EXPECT_TRUE(eval("2 < 3").as_bool());
    EXPECT_TRUE(eval("3 <= 3").as_bool());
    EXPECT_TRUE(eval("3 = 3").as_bool());
    EXPECT_TRUE(eval("3 != 4").as_bool());
    EXPECT_FALSE(eval("3 > 4").as_bool());
    EXPECT_TRUE(eval("1 + 1 = 2").as_bool());  // comparison binds looser than +
}

TEST(ExprParser, TernaryAndCalls) {
    EXPECT_EQ(eval("true ? 1 : 2").as_int(), 1);
    EXPECT_EQ(eval("1 < 0 ? 1 : 2").as_int(), 2);
    EXPECT_EQ(eval("min(4, 2, 3)").as_int(), 2);
    EXPECT_EQ(eval("max(4, 2, 3)").as_int(), 4);
    EXPECT_EQ(eval("floor(2.7)").as_int(), 2);
    EXPECT_EQ(eval("ceil(2.2)").as_int(), 3);
    EXPECT_NEAR(eval("pow(2, 10)").as_double(), 1024.0, 1e-12);
    // nested ternary (right associative)
    EXPECT_EQ(eval("false ? 1 : true ? 2 : 3").as_int(), 2);
}

TEST(ExprParser, VariablesThroughEnvironment) {
    MapEnv env;
    env.values.emplace("x", expr::Value(3LL));
    env.values.emplace("flag", expr::Value(true));
    EXPECT_EQ(eval("x * x", env).as_int(), 9);
    EXPECT_TRUE(eval("flag & x = 3", env).as_bool());
}

TEST(ExprParser, ShortCircuitProtectsGuards) {
    // RHS would throw (unknown identifier) if evaluated.
    MapEnv env;
    EXPECT_FALSE(eval("false & missing_var", env).as_bool());
    EXPECT_TRUE(eval("true | missing_var", env).as_bool());
}

TEST(ExprParser, Errors) {
    EXPECT_THROW(expr::parse_expression("1 +"), arcade::ParseError);
    EXPECT_THROW(expr::parse_expression("(1"), arcade::ParseError);
    EXPECT_THROW(expr::parse_expression("foo(1)"), arcade::ParseError);  // unknown fn
    EXPECT_THROW(expr::parse_expression("min(1)"), arcade::ParseError);  // arity
    EXPECT_THROW(eval("1 / 0"), arcade::ModelError);
    EXPECT_THROW(eval("1 & true"), arcade::ModelError);  // type error
}

TEST(ExprParser, DeepNestingThrowsParseErrorInsteadOfOverflowingTheStack) {
    // 100000 nested parentheses, negations or right-associative
    // implications: the parser stops at its nesting bound (256) and reports
    // where (column = byte offset + 1).
    const std::size_t deep = 100000;
    std::string implications = "a";
    for (std::size_t i = 0; i < deep; ++i) implications += "=>a";
    const std::pair<std::string, std::size_t> cases[] = {
        {std::string(deep, '(') + "1" + std::string(deep, ')'), 257},
        {std::string(deep, '!') + "true", 256},
        {std::string(deep, '-') + "1", 256},
        {implications, 767},
    };
    for (const auto& [text, column] : cases) {
        try {
            (void)expr::parse_expression(text);
            ADD_FAILURE() << "no ParseError for " << text.substr(0, 8) << "...";
        } catch (const arcade::ParseError& e) {
            EXPECT_EQ(e.line(), 1u) << e.what();
            EXPECT_EQ(e.column(), column) << e.what();
        }
    }
    // Nesting below the bound still parses.
    EXPECT_EQ(eval(std::string(200, '(') + "7" + std::string(200, ')')).as_int(), 7);
}

TEST(ExprParser, RoundTripsThroughToString) {
    for (const char* text :
         {"(1 + (2 * x))", "min(a, b)", "(x >= 3 ? 0 : (y + 1))", "!(p & q)"}) {
        const auto e = expr::parse_expression(text);
        const auto e2 = expr::parse_expression(e.to_string());
        MapEnv env;
        env.values.emplace("x", expr::Value(5LL));
        env.values.emplace("y", expr::Value(2LL));
        env.values.emplace("a", expr::Value(7LL));
        env.values.emplace("b", expr::Value(4LL));
        env.values.emplace("p", expr::Value(true));
        env.values.emplace("q", expr::Value(false));
        EXPECT_TRUE(e.evaluate(env) == e2.evaluate(env)) << text;
    }
}

// Construction-time constant folding: literal subtrees collapse while
// building the AST, visible through to_string (which still round-trips).
TEST(ExprParser, LiteralSubtreesFoldAtConstruction) {
    EXPECT_EQ(expr::parse_expression("2 * 0.5").to_string(), "1");
    EXPECT_EQ(expr::parse_expression("1 + 2 * 3").to_string(), "7");
    EXPECT_EQ(expr::parse_expression("-(3)").to_string(), "-3");
    EXPECT_EQ(expr::parse_expression("true & g").to_string(), "g");
    EXPECT_EQ(expr::parse_expression("false & g").to_string(), "false");
    EXPECT_EQ(expr::parse_expression("true | g").to_string(), "true");
    EXPECT_EQ(expr::parse_expression("false | g").to_string(), "g");
    EXPECT_EQ(expr::parse_expression("true ? a : b").to_string(), "a");
    EXPECT_EQ(expr::parse_expression("false ? a : b").to_string(), "b");

    // NOT folded: a literal rhs must keep evaluating (and erroring on) the
    // lhs, and ill-typed literal folds keep their node so errors stay at
    // evaluation time.
    EXPECT_EQ(expr::parse_expression("g & false").to_string(), "(g & false)");
    EXPECT_EQ(expr::parse_expression("1 / 0").to_string(), "(1 / 0)");
    EXPECT_EQ(expr::parse_expression("!(3)").to_string(), "!(3)");
    EXPECT_THROW(eval("1 / 0"), arcade::ModelError);
}

TEST(ExprParser, FreeVariables) {
    const auto e = expr::parse_expression("x + y * x");
    const auto vars = e.free_variables();
    EXPECT_EQ(vars.size(), 3u);  // with multiplicity
}
