// Integration tests: the reactive-modules translation agrees with the
// native compiler, end to end (the paper's Fig. 1 pipeline).
#include <gtest/gtest.h>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "arcade/modules_compiler.hpp"
#include "ctmc/steady_state.hpp"
#include "logic/csl.hpp"
#include "modules/explorer.hpp"
#include "prism/prism_parser.hpp"
#include "prism/prism_writer.hpp"
#include "support/errors.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace wt = arcade::watertree;
namespace modules = arcade::modules;

namespace {

double modules_availability(const modules::ExploredModel& explored) {
    return arcade::ctmc::steady_state_probability(explored.chain,
                                                  explored.chain.label("operational"));
}

}  // namespace

// Strategy-parameterised pipeline equivalence.
class PipelineEquivalence : public ::testing::TestWithParam<const char*> {
protected:
    [[nodiscard]] wt::Strategy strategy() const {
        for (const auto& s : wt::paper_strategies()) {
            if (s.name == GetParam()) return s;
        }
        throw std::runtime_error("unknown strategy");
    }
};

TEST_P(PipelineEquivalence, ModulesTranslationMatchesNativeCompiler) {
    const auto model = wt::line2(strategy());
    const auto native = core::compile(model);
    const auto explored = modules::explore(core::to_reactive_modules(model));

    EXPECT_EQ(explored.chain.state_count(), native.state_count());
    EXPECT_EQ(explored.chain.transition_count(), native.transition_count());
    EXPECT_NEAR(modules_availability(explored), core::availability(native), 1e-9);
}

TEST_P(PipelineEquivalence, CostRewardsAgree) {
    const auto model = wt::line2(strategy());
    const auto native = core::compile(model);
    const auto explored = modules::explore(core::to_reactive_modules(model));
    const auto& reward = explored.reward_structures.at("cost");
    // compare the steady-state expected cost (state orders differ, so compare
    // the measure rather than per-state vectors)
    const auto pi_native = arcade::ctmc::steady_state(native.chain());
    double native_cost = 0.0;
    for (std::size_t s = 0; s < pi_native.size(); ++s) {
        native_cost += pi_native[s] * native.cost_reward().state_rates()[s];
    }
    const auto pi_mod = arcade::ctmc::steady_state(explored.chain);
    double mod_cost = 0.0;
    for (std::size_t s = 0; s < pi_mod.size(); ++s) {
        mod_cost += pi_mod[s] * reward.state_rates()[s];
    }
    EXPECT_NEAR(native_cost, mod_cost, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PipelineEquivalence,
                         ::testing::Values("DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"));

TEST(Pipeline, PrismExportReimportsToTheSameChain) {
    const auto model = wt::line2(wt::paper_strategies()[1]);  // FRF-1
    const auto system = core::to_reactive_modules(model);
    const auto reparsed = arcade::prism::parse_prism(arcade::prism::write_prism(system));
    const auto a = modules::explore(system);
    const auto b = modules::explore(reparsed);
    EXPECT_EQ(a.chain.state_count(), b.chain.state_count());
    EXPECT_EQ(a.chain.transition_count(), b.chain.transition_count());
    EXPECT_NEAR(modules_availability(a), modules_availability(b), 1e-10);
}

TEST(Pipeline, CslQueriesOnTheTranslatedCaseStudy) {
    const auto model = wt::line2(wt::paper_strategies()[0]);  // DED
    const auto explored = modules::explore(core::to_reactive_modules(model));
    arcade::logic::CheckerOptions options;
    options.reward_structures = explored.reward_structures;
    // Table 2, DED line 2
    const auto avail = arcade::logic::check(explored.chain, "S=? [ \"operational\" ]",
                                            options);
    EXPECT_NEAR(*avail.value, 0.8186317, 5e-7);
    // cost rate in the all-up state is the 9 idle crews
    const auto cost = arcade::logic::check(explored.chain, "R{\"cost\"}=? [ I=0 ]", options);
    EXPECT_NEAR(*cost.value, 9.0, 1e-9);
}

TEST(Pipeline, ModulesTranslationRejectsUnsupportedFeatures) {
    auto strat = wt::paper_strategies()[1];
    strat.preemptive = true;
    EXPECT_THROW(core::to_reactive_modules(wt::line2(strat)), arcade::ModelError);
    auto many_crews = wt::paper_strategies()[1];
    many_crews.crews = 3;
    EXPECT_THROW(core::to_reactive_modules(wt::line2(many_crews)), arcade::ModelError);
}
