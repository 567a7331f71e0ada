// Unit tests: reactive-module exploration, synchronisation, labels, rewards.
#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/steady_state.hpp"
#include "modules/explorer.hpp"
#include "modules/modules.hpp"
#include "support/errors.hpp"

namespace modules = arcade::modules;
namespace expr = arcade::expr;

namespace {

expr::Expr E(const std::string& text) { return expr::parse_expression(text); }

modules::Module two_state_module(const std::string& var, double fail, double repair) {
    modules::Module m;
    m.name = "m_" + var;
    m.variables.push_back({var, modules::VarType::Int, 0, 1, 0});
    m.commands.push_back({"", E(var + "=0"), {{expr::Expr::real(fail), {{var, E("1")}}}}});
    m.commands.push_back({"", E(var + "=1"), {{expr::Expr::real(repair), {{var, E("0")}}}}});
    return m;
}

}  // namespace

TEST(Explorer, SingleModuleTwoStates) {
    modules::ModuleSystem sys;
    sys.modules.push_back(two_state_module("x", 0.5, 2.0));
    sys.labels.emplace("up", E("x=0"));
    const auto result = modules::explore(sys);
    EXPECT_EQ(result.chain.state_count(), 2u);
    EXPECT_EQ(result.chain.transition_count(), 2u);
    EXPECT_NEAR(arcade::ctmc::steady_state_probability(result.chain,
                                                       result.chain.label("up")),
                2.0 / 2.5, 1e-10);
}

TEST(Explorer, TwoIndependentModulesInterleave) {
    modules::ModuleSystem sys;
    sys.modules.push_back(two_state_module("x", 1.0, 1.0));
    sys.modules.push_back(two_state_module("y", 1.0, 1.0));
    const auto result = modules::explore(sys);
    EXPECT_EQ(result.chain.state_count(), 4u);
    EXPECT_EQ(result.chain.transition_count(), 8u);
}

TEST(Explorer, SynchronisationMultipliesRatesAndJoinsUpdates) {
    // Two modules synchronise on "go": rate 2 * 3 = 6, both variables move.
    modules::ModuleSystem sys;
    modules::Module a;
    a.name = "a";
    a.variables.push_back({"x", modules::VarType::Int, 0, 1, 0});
    a.commands.push_back({"go", E("x=0"), {{expr::Expr::real(2.0), {{"x", E("1")}}}}});
    modules::Module b;
    b.name = "b";
    b.variables.push_back({"y", modules::VarType::Int, 0, 1, 0});
    b.commands.push_back({"go", E("y=0"), {{expr::Expr::real(3.0), {{"y", E("1")}}}}});
    sys.modules = {a, b};
    const auto result = modules::explore(sys);
    ASSERT_EQ(result.chain.state_count(), 2u);
    EXPECT_EQ(result.chain.transition_count(), 1u);
    EXPECT_NEAR(result.chain.rates().at(0, 1), 6.0, 1e-12);
    EXPECT_EQ(result.value_of(1, "x"), 1);
    EXPECT_EQ(result.value_of(1, "y"), 1);
}

TEST(Explorer, BlockedSynchronisationProducesNoTransition) {
    // b has "go" in its alphabet but no enabled command in the initial state.
    modules::ModuleSystem sys;
    modules::Module a;
    a.name = "a";
    a.variables.push_back({"x", modules::VarType::Int, 0, 1, 0});
    a.commands.push_back({"go", E("true"), {{expr::Expr::real(2.0), {{"x", E("1")}}}}});
    modules::Module b;
    b.name = "b";
    b.variables.push_back({"y", modules::VarType::Int, 0, 1, 0});
    b.commands.push_back({"go", E("y=1"), {{expr::Expr::real(3.0), {{"y", E("0")}}}}});
    sys.modules = {a, b};
    const auto result = modules::explore(sys);
    EXPECT_EQ(result.chain.state_count(), 1u);
    EXPECT_EQ(result.chain.transition_count(), 0u);
}

TEST(Explorer, ConstantsResolveInGuardsAndRates) {
    modules::ModuleSystem sys;
    sys.constants.emplace("lambda", expr::Value(0.25));
    sys.constants.emplace("N", expr::Value(2LL));
    modules::Module m;
    m.name = "counter";
    m.variables.push_back({"c", modules::VarType::Int, 0, 2, 0});
    m.commands.push_back({"", E("c < N"), {{E("lambda * (c + 1)"), {{"c", E("c+1")}}}}});
    sys.modules.push_back(m);
    const auto result = modules::explore(sys);
    EXPECT_EQ(result.chain.state_count(), 3u);
    EXPECT_NEAR(result.chain.rates().at(0, 1), 0.25, 1e-12);
    EXPECT_NEAR(result.chain.rates().at(1, 2), 0.5, 1e-12);
}

TEST(Explorer, RewardStructuresEvaluatePerState) {
    modules::ModuleSystem sys;
    sys.modules.push_back(two_state_module("x", 1.0, 1.0));
    modules::RewardDecl cost;
    cost.name = "cost";
    cost.items.push_back({E("x=1"), E("3")});
    cost.items.push_back({E("true"), E("0.5")});
    sys.rewards.push_back(cost);
    const auto result = modules::explore(sys);
    const auto& reward = result.reward_structures.at("cost");
    EXPECT_DOUBLE_EQ(reward.state_rates()[0], 0.5);
    EXPECT_DOUBLE_EQ(reward.state_rates()[1], 3.5);
}

TEST(Explorer, BoundViolationIsAnError) {
    modules::ModuleSystem sys;
    modules::Module m;
    m.name = "m";
    m.variables.push_back({"x", modules::VarType::Int, 0, 1, 0});
    m.commands.push_back({"", E("true"), {{E("1"), {{"x", E("x+1")}}}}});
    sys.modules.push_back(m);
    EXPECT_THROW(modules::explore(sys), arcade::ModelError);
}

TEST(Explorer, ProbabilisticAlternativesSplitRates) {
    // One command with two alternatives at different rates.
    modules::ModuleSystem sys;
    modules::Module m;
    m.name = "m";
    m.variables.push_back({"x", modules::VarType::Int, 0, 2, 0});
    m.commands.push_back({"",
                          E("x=0"),
                          {{E("1.5"), {{"x", E("1")}}}, {E("0.5"), {{"x", E("2")}}}}});
    sys.modules.push_back(m);
    const auto result = modules::explore(sys);
    EXPECT_EQ(result.chain.state_count(), 3u);
    EXPECT_NEAR(result.chain.rates().at(0, 1), 1.5, 1e-12);
    EXPECT_NEAR(result.chain.rates().at(0, 2), 0.5, 1e-12);
}

TEST(Explorer, StatePredicateEvaluation) {
    modules::ModuleSystem sys;
    sys.modules.push_back(two_state_module("x", 1.0, 2.0));
    const auto result = modules::explore(sys);
    const auto bits = modules::evaluate_state_predicate(result, sys, E("x=1"));
    ASSERT_EQ(bits.size(), 2u);
    EXPECT_FALSE(bits[0]);
    EXPECT_TRUE(bits[1]);
}
