// Unit tests: expression AST, parser and evaluator.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "expr/expr.hpp"
#include "expr/vm.hpp"
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

TEST(ExprParser, LongChainsThrowParseErrorPastTheTreeBound) {
    // A left-associative chain is a loop in the parser but one tree level
    // per operator in every later walk (evaluate, compile, to_string,
    // destruction).  "x+x+...+x" with n terms is n levels deep, so the
    // chain of kMaxTreeDepth terms parses and one term more fails at its
    // last '+' (byte 2k-1 for the k-th, column 2k).
    const std::size_t bound = expr::kMaxTreeDepth;
    const auto chain = [](std::size_t terms, const std::string& term, const std::string& op) {
        std::string text = term;
        for (std::size_t i = 1; i < terms; ++i) text += op + term;
        return text;
    };
    MapEnv env;
    env.values.emplace("x", expr::Value(1LL));
    env.values.emplace("b", expr::Value(true));
    // At the bound, every walk the checks below reach runs to the bottom.
    const expr::Expr sum = expr::parse_expression(chain(bound, "x", "+"));
    EXPECT_EQ(sum.evaluate(env).as_int(), static_cast<long long>(bound));
    EXPECT_EQ(sum.to_string().size(), 4 * bound - 1);  // n "x", n-1 " + " and "()"
    const expr::Expr conjunction = expr::parse_expression(chain(bound, "b", "&"));
    expr::SlotMap slots;
    slots.slots.emplace("b", 0);
    const std::vector<expr::Value> values{expr::Value(true)};
    EXPECT_TRUE(expr::compile(conjunction, slots).run(values).as_bool());
    for (const std::size_t terms : {bound + 1, std::size_t{100000}}) {
        try {
            (void)expr::parse_expression(chain(terms, "x", "+"));
            ADD_FAILURE() << "no ParseError for " << terms << " terms";
        } catch (const arcade::ParseError& e) {
            EXPECT_EQ(e.line(), 1u) << e.what();
            EXPECT_EQ(e.column(), 2 * bound) << e.what();
            EXPECT_NE(std::string(e.what()).find("deeper than"), std::string::npos)
                << e.what();
        }
    }
    // min/max fold their arguments one level each.
    EXPECT_THROW((void)expr::parse_expression("min(" + chain(bound + 1, "x", ",") + ")"),
                 arcade::ParseError);
    // The bound is on the tree built, not on the text: operators that fold
    // to a literal, or to one of their operands, add no level.
    EXPECT_EQ(expr::parse_expression(chain(10000, "1", "+")).evaluate(env).as_int(), 10000);
    EXPECT_TRUE(
        expr::parse_expression(chain(10000, "true", "&") + "&b").evaluate(env).as_bool());
}

namespace {

/// Structural equality of two expression trees: node kinds, operators,
/// literal values and identifier names.
bool same_tree(const expr::Expr& a, const expr::Expr& b) {
    if (a.empty() || b.empty()) return a.empty() && b.empty();
    if (a.node().index() != b.node().index()) return false;
    if (const auto* la = std::get_if<expr::Literal>(&a.node())) {
        return la->value == std::get<expr::Literal>(b.node()).value;
    }
    if (const auto* ia = std::get_if<expr::Identifier>(&a.node())) {
        return ia->name == std::get<expr::Identifier>(b.node()).name;
    }
    if (const auto* ua = std::get_if<expr::Unary>(&a.node())) {
        const auto& ub = std::get<expr::Unary>(b.node());
        return ua->op == ub.op && same_tree(ua->operand, ub.operand);
    }
    if (const auto* ba = std::get_if<expr::Binary>(&a.node())) {
        const auto& bb = std::get<expr::Binary>(b.node());
        return ba->op == bb.op && same_tree(ba->lhs, bb.lhs) && same_tree(ba->rhs, bb.rhs);
    }
    const auto& ia = std::get<expr::Ite>(a.node());
    const auto& ib = std::get<expr::Ite>(b.node());
    return same_tree(ia.cond, ib.cond) && same_tree(ia.then_branch, ib.then_branch) &&
           same_tree(ia.else_branch, ib.else_branch);
}

}  // namespace

TEST(ExprParser, PrintParseRoundTripsChainsAtTheTreeBound) {
    // A left operand at its parent's left-associative level prints without
    // parentheses, and a min/max whose first argument is the same call as
    // one call, so a chain of kMaxTreeDepth terms prints one level deep and
    // parses back to the same tree; right operands keep their nesting.
    const std::size_t bound = expr::kMaxTreeDepth;
    const auto chain = [](std::size_t terms, const std::string& term,
                          const std::vector<std::string>& ops) {
        std::string text = term;
        for (std::size_t i = 1; i < terms; ++i) text += ops[i % ops.size()] + term;
        return text;
    };
    for (const std::string& text :
         {chain(bound, "x", {"+"}), chain(bound, "b", {"&"}), chain(bound, "b", {"|"}),
          chain(bound, "x", {"+", "-"}), chain(bound, "x", {"*", "/"}),
          chain(bound, "b", {"<=>"}), "min(" + chain(bound, "x", {", "}) + ")",
          "max(" + chain(bound, "x", {", "}) + ")"}) {
        const expr::Expr parsed = expr::parse_expression(text);
        const std::string printed = parsed.to_string();
        const expr::Expr reparsed = expr::parse_expression(printed);
        EXPECT_TRUE(same_tree(reparsed, parsed)) << text.substr(0, 12);
        EXPECT_EQ(reparsed.to_string(), printed);
    }
    // Mixed levels and right-nested operands keep their parentheses.
    for (const char* text :
         {"a - (b - c)", "(a + b) * c - d / (e * f)", "(p | q) & r | s", "p & (q & r)",
          "(a < b) = (c < d)", "(p => q) => r"}) {
        const expr::Expr parsed = expr::parse_expression(text);
        EXPECT_TRUE(same_tree(expr::parse_expression(parsed.to_string()), parsed))
            << text << " printed as " << parsed.to_string();
    }
    EXPECT_EQ(expr::parse_expression("a - b + c").to_string(), "(a - b + c)");
    EXPECT_EQ(expr::parse_expression("a - (b + c)").to_string(), "(a - (b + c))");
    EXPECT_EQ(expr::parse_expression("a * b + c").to_string(), "((a * b) + c)");
    EXPECT_EQ(expr::parse_expression("min(a, b, c)").to_string(), "min(a, b, c)");
    EXPECT_EQ(expr::parse_expression("min(max(a, b), c)").to_string(), "min(max(a, b), c)");
    EXPECT_EQ(expr::parse_expression("min(a, min(b, c))").to_string(), "min(a, min(b, c))");
    EXPECT_EQ(expr::parse_expression("pow(pow(a, b), c)").to_string(), "pow(pow(a, b), c)");
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
