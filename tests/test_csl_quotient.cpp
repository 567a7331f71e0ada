// CSL on reduced chains: verdicts and values on a lumped chain must agree
// with checking the full chain.
//
//  * on planted labelled chains, raw-checking the hand-built QuotientCtmc
//    agrees with raw-checking the full chain, every state read through its
//    block: satisfaction (verdict) vectors bitwise-identical, quantitative
//    vectors to 1e-9 relative (two different linear-algebra runs cannot be
//    bitwise);
//  * on both watertree encodings, the engine path under ReductionPolicy::
//    Auto agrees with ::Off the same way, for nested P/S/R/X formulas (state
//    by state: Auto explores an individual model on the lumped encoding, so
//    every full-chain state is compared with the lumped state standing for
//    it);
//  * the engine path under Auto IS the raw check of the model's chain(),
//    bit for bit;
//  * the session's check_property is the checker's value, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

#include "arcade/compiler.hpp"
#include "ctmc/quotient.hpp"
#include "lumped_counters.hpp"
#include "engine/session.hpp"
#include "logic/csl.hpp"
#include "logic/csl_compiled.hpp"
#include "support/errors.hpp"
#include "watertree/properties.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace ctmc = arcade::ctmc;
namespace engine = arcade::engine;
namespace logic = arcade::logic;
namespace wt = arcade::watertree;

namespace {

/// A lumpable labelled chain: `blocks` macro-states expanded into `copies`
/// bitwise-exchangeable states (identical per-block rate multisets), with
/// intra-block noise ordinary lumpability must ignore, block-constant labels
/// "a"/"b" and a block-constant "cost" reward.
struct Planted {
    ctmc::Ctmc chain;
    std::vector<double> cost;
    std::vector<std::size_t> block_of;
    ctmc::LumpSignature signature;
    logic::CheckerOptions options;
};

Planted make_planted(std::size_t blocks, std::size_t copies, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> rate(0.2, 2.0);
    std::uniform_int_distribution<std::size_t> pick(0, copies - 1);
    const std::size_t n = blocks * copies;
    arcade::linalg::CsrBuilder builder(n, n);
    const auto state = [copies](std::size_t block, std::size_t copy) {
        return block * copies + copy;
    };
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t c = 0; c < blocks; ++c) {
            if (b == c) continue;
            const double r = rate(rng);
            for (std::size_t i = 0; i < copies; ++i) {
                builder.add(state(b, i), state(c, pick(rng)), r);
            }
        }
        for (std::size_t i = 0; i + 1 < copies; ++i) {
            builder.add(state(b, i), state(b, i + 1), rate(rng));
        }
    }
    std::vector<double> initial(n, 0.0);
    initial[0] = 1.0;
    Planted out{ctmc::Ctmc(builder.build(), std::move(initial)), {}, {}, {}, {}};
    out.block_of.resize(n);
    out.cost.resize(n);
    std::vector<bool> a(n);
    std::vector<bool> b_label(n);
    std::vector<double> block_row(n);
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t b = s / copies;
        out.block_of[s] = b;
        out.cost[s] = static_cast<double>(b % 3);
        a[s] = b % 2 == 0;
        b_label[s] = b + 1 == blocks;
        block_row[s] = static_cast<double>(b);
    }
    out.chain.set_label("a", std::move(a));
    out.chain.set_label("b", std::move(b_label));
    out.signature.labels = {"a", "b"};
    out.signature.values = {out.cost, block_row};
    out.options.reward_structures.emplace(
        "cost", arcade::rewards::RewardStructure("cost", out.cost));
    return out;
}

/// Raw-checks `formula` on the quotient chain (projected rewards) and reads
/// the per-state vectors back through the block map: state s gets the
/// entry of block_of(s).
logic::CheckResult check_by_block(const Planted& planted, const ctmc::QuotientCtmc& q,
                                  const std::string& formula) {
    logic::CheckerOptions options;
    options.reward_structures.emplace(
        "cost",
        arcade::rewards::RewardStructure("cost", q.project_values(planted.cost)));
    logic::CheckResult result = logic::check(q.chain(), formula, options);
    const std::size_t n = q.original_state_count();
    if (!result.values.empty()) {
        std::vector<double> values(n);
        for (std::size_t s = 0; s < n; ++s) values[s] = result.values[q.block_of(s)];
        result.values = std::move(values);
    }
    if (!result.satisfaction.empty()) {
        std::vector<bool> sat(n);
        for (std::size_t s = 0; s < n; ++s) sat[s] = result.satisfaction[q.block_of(s)];
        result.satisfaction = std::move(sat);
    }
    return result;
}

void expect_near_rel(const std::vector<double>& a, const std::vector<double>& b,
                     double tolerance, const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
        EXPECT_NEAR(a[i], b[i], tolerance * scale) << what << " at " << i;
    }
}

/// auto_state[s] = the state of `automatic`'s chain standing for state s of
/// `off`'s (SIZE_MAX when it has none): under Auto an individual model is
/// explored on the lumped encoding, whose state is s's lumped counters; a
/// lumped model explores the same chain either way.
std::vector<std::size_t> auto_states(const core::CompiledModel& automatic,
                                     const core::CompiledModel& off) {
    std::vector<std::size_t> auto_state(off.chain().state_count());
    for (std::size_t s = 0; s < auto_state.size(); ++s) {
        auto_state[s] = off.encoding() == core::Encoding::Individual
                            ? arcade::testing::lumped_state_of(automatic, off, s)
                            : s;
    }
    return auto_state;
}

/// Nested P/S/R formulas over the planted chain's vocabulary.  Thresholds
/// sit far from the computed probabilities, so Off/Auto verdicts cannot
/// flip on solver noise.
const char* const kPlantedFormulas[] = {
    "P=? [ \"a\" U<=2 \"b\" ]",
    "P>=0.9999 [ true U<=0.001 \"b\" ]",
    "P=? [ true U \"b\" ]",
    "P=? [ true U<=3 (\"b\" & P>=0.0001 [ true U<=1 \"a\" ]) ]",
    "S=? [ \"a\" ]",
    "S>=0.999999 [ P<=0.999999 [ true U<=2 \"b\" ] | \"b\" ]",
    "R{\"cost\"}=? [ C<=2 ]",
    "R{\"cost\"}=? [ I=1.5 ]",
    "R{\"cost\"}=? [ S ]",
    "P=? [ G<=2 !\"b\" ]",
};

}  // namespace

TEST(CslQuotient, LiftedQuotientCheckAgreesWithFullChainOnPlantedChains) {
    for (const unsigned seed : {5u, 17u}) {
        const auto planted = make_planted(6, 3, seed);
        const ctmc::QuotientCtmc q(planted.chain, planted.signature);
        ASSERT_EQ(q.block_count(), 6u);
        for (const char* formula : kPlantedFormulas) {
            const auto full = logic::check(planted.chain, formula, planted.options);
            const auto by_block = check_by_block(planted, q, formula);
            const std::string what = std::string(formula) + " seed " + std::to_string(seed);
            // Verdicts are bitwise: boolean vectors either agree exactly or
            // the quotient is wrong.
            EXPECT_EQ(full.satisfaction, by_block.satisfaction) << what;
            ASSERT_EQ(full.holds.has_value(), by_block.holds.has_value()) << what;
            if (full.holds) {
                EXPECT_EQ(*full.holds, *by_block.holds) << what;
            }
            // Values are two different linear-algebra runs (6 blocks vs 18
            // states): equal to tight tolerance, never bitwise.
            expect_near_rel(full.values, by_block.values, 1e-9, what);
            ASSERT_EQ(full.value.has_value(), by_block.value.has_value()) << what;
            if (full.value) {
                EXPECT_NEAR(*full.value, *by_block.value, 1e-9) << what;
            }
        }
    }
}

TEST(CslQuotient, EnginePathUnderAutoIsTheRawCheckOfTheChainBitwise) {
    // Under ReductionPolicy::Auto the engine path runs the recursive
    // evaluator on the model's chain() — the lumped chain an individual
    // model is explored on — so it is the raw check of that chain, bit for
    // bit.  (S / R[S] queries route through the session's cached
    // steady-state solve instead and are covered below.)
    engine::AnalysisSession session;
    core::CompileOptions options;
    options.encoding = core::Encoding::Individual;
    options.reduction = core::ReductionPolicy::Auto;
    const auto model = session.compile(wt::line2(wt::strategy("FRF-1")), options);
    ASSERT_LT(model->chain().state_count(), model->state_count());

    logic::CheckerOptions checker;
    checker.reward_structures.emplace(model->cost_reward().name(), model->cost_reward());
    for (const std::string& formula :
         {std::string("P=? [ true U<=10 \"down\" ]"),
          std::string("P>=0.5 [ true U<=100 \"operational\" ]"),
          std::string("R{\"cost\"}=? [ C<=2 ]"), std::string("P=? [ X \"down\" ]"),
          wt::properties::survivability_formula(2.0 / 3.0, 50.0)}) {
        const auto by_hand = logic::check(model->chain(), formula, checker);
        const auto engine_result = logic::check(session, model, formula);
        EXPECT_EQ(engine_result.values, by_hand.values) << formula;
        EXPECT_EQ(engine_result.satisfaction, by_hand.satisfaction) << formula;
        EXPECT_EQ(engine_result.value, by_hand.value) << formula;
        EXPECT_EQ(engine_result.holds, by_hand.holds) << formula;
    }
}

TEST(CslQuotient, AutoAgreesWithOffOnBothWatertreeEncodings) {
    for (const core::Encoding encoding :
         {core::Encoding::Individual, core::Encoding::Lumped}) {
        engine::AnalysisSession session_off;
        engine::AnalysisSession session_auto;
        core::CompileOptions off;
        off.encoding = encoding;
        off.reduction = core::ReductionPolicy::Off;
        core::CompileOptions automatic = off;
        automatic.reduction = core::ReductionPolicy::Auto;
        const auto model_off = session_off.compile(wt::line2(wt::strategy("FFF-1")), off);
        const auto model_auto =
            session_auto.compile(wt::line2(wt::strategy("FFF-1")), automatic);
        // Per-state results index each model's chain(): under Auto the
        // individual encoding's is the lumped chain, so compare every Off
        // state with the Auto state standing for it.
        const auto auto_state = auto_states(*model_auto, *model_off);
        for (const std::size_t s : auto_state) ASSERT_NE(s, SIZE_MAX);

        const std::string x2 = wt::properties::survivability_formula(2.0 / 3.0, 25.0);
        for (const std::string& formula :
             {std::string("P=? [ true U<=10 \"down\" ]"),
              std::string("S=? [ \"operational\" ]"),
              std::string("R{\"cost\"}=? [ S ]"),
              std::string("P=? [ !\"total_failure\" U<=50 \"operational\" ]"),
              std::string("S>=0.000001 [ P>=0.5 [ true U<=1 \"operational\" ] ]"), x2,
              std::string("P=? [ X \"down\" ]"), std::string("P=? [ X !\"operational\" ]"),
              std::string("P>=0.1 [ X P>=0.5 [ true U<=1 \"operational\" ] ]")}) {
            const auto a = logic::check(session_off, model_off, formula);
            const auto b = logic::check(session_auto, model_auto, formula);
            const std::string what =
                formula + (encoding == core::Encoding::Individual ? " individual"
                                                                  : " lumped");
            std::vector<bool> b_satisfaction;
            std::vector<double> b_values;
            for (const std::size_t s : auto_state) {
                if (!b.satisfaction.empty()) b_satisfaction.push_back(b.satisfaction[s]);
                if (!b.values.empty()) b_values.push_back(b.values[s]);
            }
            EXPECT_EQ(a.satisfaction, b_satisfaction) << what;
            if (a.holds) {
                EXPECT_EQ(*a.holds, *b.holds) << what;
            }
            expect_near_rel(a.values, b_values, 1e-8, what);
            if (a.value) {
                EXPECT_NEAR(*a.value, *b.value, 1e-8) << what;
            }
        }
    }
}

TEST(CslQuotient, NextFallsBackToTheFullChainBitwise) {
    // X is not invariant under ordinary lumping in general (jump
    // probabilities read intra-block rates).  A lumped model explores the
    // same chain under Auto as under Off, and every analysis reads chain(),
    // so Next is the same computation under both.
    engine::AnalysisSession session_off;
    engine::AnalysisSession session_auto;
    core::CompileOptions off;
    off.encoding = core::Encoding::Lumped;
    off.reduction = core::ReductionPolicy::Off;
    core::CompileOptions automatic = off;
    automatic.reduction = core::ReductionPolicy::Auto;
    const auto model_off = session_off.compile(wt::line2(wt::strategy("DED")), off);
    const auto model_auto = session_auto.compile(wt::line2(wt::strategy("DED")), automatic);

    const std::string formula = "P=? [ X \"down\" ]";
    const auto a = logic::check(session_off, model_off, formula);
    const auto b = logic::check(session_auto, model_auto, formula);
    EXPECT_EQ(a.values, b.values);  // bitwise: both ran the full chain
    ASSERT_TRUE(a.value && b.value);
    EXPECT_EQ(*a.value, *b.value);
}

TEST(CslQuotient, SteadyStatePropertiesReuseTheSessionSolveByteIdentically) {
    // S=?["operational"] must BE the availability measure and R{"cost"}=?[S]
    // the long-run cost — same cached distribution, same summation order.
    engine::AnalysisSession session;
    core::CompileOptions options;
    options.reduction = core::ReductionPolicy::Auto;
    const auto model = session.compile(wt::line2(wt::strategy("FRF-2")), options);

    const auto availability = logic::check(session, model, "S=? [ \"operational\" ]");
    ASSERT_TRUE(availability.value.has_value());
    EXPECT_EQ(*availability.value, session.availability(model));

    const auto cost = logic::check(session, model, "R{\"cost\"}=? [ S ]");
    ASSERT_TRUE(cost.value.has_value());
    EXPECT_EQ(*cost.value, session.steady_state_cost(model));

    // One steady-state solve served all four consumers.
    EXPECT_EQ(session.stats().steady_state_misses, 1u);
}

TEST(CslQuotient, SessionCheckPropertyForwardsToTheChecker) {
    // check_property is an uncached forward to logic::check over the
    // session, with the given epsilon.
    engine::AnalysisSession session;
    core::CompileOptions options;
    options.reduction = core::ReductionPolicy::Auto;
    const auto model = session.compile(wt::line2(wt::strategy("DED")), options);

    const std::string formula = "P=? [ true U<=10 \"down\" ]";
    for (const double epsilon : {1e-12, 1e-10}) {
        logic::CheckerOptions checker;
        checker.epsilon = epsilon;
        const auto want = logic::check(session, model, formula, checker);
        const auto got = session.check_property(model, formula, epsilon);
        ASSERT_TRUE(want.value.has_value() && got->value.has_value());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*got->value),
                  std::bit_cast<std::uint64_t>(*want.value))
            << epsilon;
    }
}

TEST(CslQuotient, CallerRewardStructuresAreReadOnTheChainAsGiven) {
    // Caller-supplied reward structures are given over chain()'s states and
    // read as given, also under Auto: a structure that splits every block of
    // the chain's quotient is no error.  A strict repair priority puts every
    // component in a class and a group of its own: nothing is
    // interchangeable, the lumped chain is as large as the full chain, and
    // bisimilar states would still lump.
    auto line2 = wt::line2(wt::strategy("DED"));
    for (auto& ru : line2.repair_units) {
        ru.policy = core::RepairPolicy::Priority;
        ru.priorities.clear();
        for (std::size_t i = 0; i < ru.components.size(); ++i) {
            ru.priorities.push_back(static_cast<int>(i));
        }
    }
    engine::AnalysisSession session;
    core::CompileOptions options;
    options.reduction = core::ReductionPolicy::Auto;
    const auto model = session.compile(line2, options);
    ASSERT_EQ(model->chain().state_count(), model->state_count());
    ASSERT_LT(model->quotient().first->block_count(), model->chain().state_count());

    logic::CheckerOptions checker;
    std::vector<double> per_state(model->chain().state_count());
    for (std::size_t s = 0; s < per_state.size(); ++s) {
        per_state[s] = static_cast<double>(s);  // splits every block
    }
    checker.reward_structures.emplace(
        "perstate", arcade::rewards::RewardStructure("perstate", per_state));

    const std::string formula = "R{\"perstate\"}=? [ C<=0.1 ]";
    const auto engine_result = logic::check(session, model, formula, checker);
    const auto by_hand = logic::check(model->chain(), formula, checker);
    ASSERT_TRUE(engine_result.value.has_value());
    EXPECT_EQ(engine_result.values, by_hand.values);
    EXPECT_EQ(*engine_result.value, *by_hand.value);
}

TEST(CslQuotient, CheckSeriesRejectsNonTimeParametricTopLevels) {
    engine::AnalysisSession session;
    const auto model = session.compile(wt::line2(wt::strategy("DED")));
    const std::vector<double> times{0.0, 1.0, 2.0};
    const std::vector<double> initial = model->chain().initial_distribution();
    for (const char* formula : {"S=? [ \"operational\" ]", "R{\"cost\"}=? [ S ]",
                                "P>=0.5 [ true U<=1 \"down\" ]", "\"operational\"",
                                "P=? [ true U \"down\" ]"}) {
        EXPECT_THROW((void)logic::check_series(model, *logic::parse_csl(formula), times,
                                               initial),
                     arcade::InvalidArgument)
            << formula;
    }
}
