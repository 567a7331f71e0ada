// Integration tests: steady-state availability against the paper's Table 2.
//
// Tolerances are tiered (see README.md, "Differences from the paper"):
// * DED rows are exact product-form quantities — we match to 5e-7.
// * Two-crew rows match to 2e-4.
// * One-crew rows: the paper's own table contains a semantic impossibility
//   (FFF-2 on Line 2 exceeds DED although dedicated repair dominates every
//   strategy), so those digits carry solver noise; we check to 3e-3 and
//   additionally assert the exact semantic invariants.
#include <gtest/gtest.h>

#include "arcade/measures.hpp"
#include "watertree/watertree.hpp"

namespace wt = arcade::watertree;
namespace core = arcade::core;

namespace {

double line_availability(const core::ArcadeModel& model,
                         core::Encoding encoding = core::Encoding::Lumped) {
    core::CompileOptions options;
    options.encoding = encoding;
    const auto compiled = core::compile(model, options);
    return core::availability(compiled);
}

const wt::Strategy& strategy_named(const std::string& name) {
    static const auto all = wt::paper_strategies();
    for (const auto& s : all) {
        if (s.name == name) return s;
    }
    throw std::runtime_error("unknown strategy " + name);
}

}  // namespace

TEST(WatertreeAvailability, DedicatedMatchesPaperExactly) {
    const double a1 = line_availability(wt::line1(strategy_named("DED")));
    const double a2 = line_availability(wt::line2(strategy_named("DED")));
    EXPECT_NEAR(a1, 0.7442018, 5e-7);
    EXPECT_NEAR(a2, 0.8186317, 5e-7);
    EXPECT_NEAR(core::combined_availability(a1, a2), 0.9536063, 5e-7);
}

TEST(WatertreeAvailability, DedicatedMatchesProductForm) {
    // Closed form: independent 2-state components.
    const auto avail = [](double mttf, double mttr) { return mttf / (mttf + mttr); };
    const double st = avail(2000, 5);
    const double sf = avail(1000, 100);
    const double res = avail(6000, 12);
    const double p = avail(500, 1);
    const double pumps1 = p * p * p * p + 4 * p * p * p * (1 - p);  // >=3 of 4
    const double expected1 = st * st * st * sf * sf * sf * res * pumps1;
    EXPECT_NEAR(line_availability(wt::line1(strategy_named("DED"))), expected1, 1e-9);

    const double pumps2 = p * p * p + 3 * p * p * (1 - p);  // >=2 of 3
    const double expected2 = st * st * st * sf * sf * res * pumps2;
    EXPECT_NEAR(line_availability(wt::line2(strategy_named("DED"))), expected2, 1e-9);
}

TEST(WatertreeAvailability, TwoCrewRowsMatchPaper) {
    EXPECT_NEAR(line_availability(wt::line2(strategy_named("FRF-2"))), 0.8186312, 2e-4);
    EXPECT_NEAR(line_availability(wt::line2(strategy_named("FFF-2"))), 0.8186662, 2e-4);
    EXPECT_NEAR(line_availability(wt::line1(strategy_named("FRF-2"))), 0.7439214, 2e-4);
    EXPECT_NEAR(line_availability(wt::line1(strategy_named("FFF-2"))), 0.7440022, 2e-4);
}

TEST(WatertreeAvailability, OneCrewRowsMatchPaperCoarsely) {
    EXPECT_NEAR(line_availability(wt::line2(strategy_named("FRF-1"))), 0.8101931, 3e-3);
    EXPECT_NEAR(line_availability(wt::line2(strategy_named("FFF-1"))), 0.8120302, 3e-3);
    EXPECT_NEAR(line_availability(wt::line1(strategy_named("FRF-1"))), 0.7225597, 3e-3);
    // The paper's FFF-1 row deviates most from the exact solution: with a
    // work-conserving single crew the ST/SF/RES order provably has little
    // effect on availability, so FFF-1 ~ FRF-1 in any exact solution
    // (ours: 0.72163 vs 0.72240).  See README.md, "Differences from the paper".
    EXPECT_NEAR(line_availability(wt::line1(strategy_named("FFF-1"))), 0.7273540, 7e-3);
}

TEST(WatertreeAvailability, OneCrewPoliciesNearlyTie) {
    // The work-conservation argument (README.md, "Differences from the
    // paper"): with one crew the line is up only when the whole backlog
    // except one pump is cleared, so the service order among
    // always-required components barely matters.
    const double frf1 = line_availability(wt::line1(strategy_named("FRF-1")));
    const double fff1 = line_availability(wt::line1(strategy_named("FFF-1")));
    EXPECT_NEAR(frf1, fff1, 2e-3);
}

TEST(WatertreeAvailability, DedicatedDominatesEveryStrategy) {
    // Semantic invariant the paper's Table 2 itself violates (FFF-2 line 2):
    // dedicated repair is an upper bound on availability.
    const double ded = line_availability(wt::line2(strategy_named("DED")));
    for (const auto& s : wt::paper_strategies()) {
        if (s.name == "DED") continue;
        EXPECT_LE(line_availability(wt::line2(s)), ded + 1e-9) << s.name;
    }
}

TEST(WatertreeAvailability, TwoCrewsBeatOneCrew) {
    EXPECT_GT(line_availability(wt::line2(strategy_named("FRF-2"))),
              line_availability(wt::line2(strategy_named("FRF-1"))));
    EXPECT_GT(line_availability(wt::line2(strategy_named("FFF-2"))),
              line_availability(wt::line2(strategy_named("FFF-1"))));
}

TEST(WatertreeAvailability, LumpedAgreesWithIndividualEncoding) {
    for (const auto& name : {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
        const auto model = wt::line2(strategy_named(name));
        const double lumped = line_availability(model, core::Encoding::Lumped);
        const double individual = line_availability(model, core::Encoding::Individual);
        EXPECT_NEAR(lumped, individual, 1e-9) << name;
    }
}
