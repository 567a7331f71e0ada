// Integration tests: survivability and cost curves against the paper's
// Figures 3–11 (shape claims, endpoints, and the cross-strategy orderings
// the paper's Section 5 discusses).
#include <gtest/gtest.h>

#include <cmath>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "support/series.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace wt = arcade::watertree;

namespace {

const wt::Strategy& strategy(const std::string& name) {
    static const auto all = wt::paper_strategies();
    for (const auto& s : all) {
        if (s.name == name) return s;
    }
    throw std::runtime_error("unknown strategy " + name);
}

core::CompiledModel lumped(const core::ArcadeModel& model) {
    core::CompileOptions options;
    options.encoding = core::Encoding::Lumped;
    return core::compile(model, options);
}

}  // namespace

TEST(Fig3Reliability, Line2DominatesLine1AndDecays) {
    const auto times = arcade::time_grid(1000.0, 21);
    const auto l1 = lumped(core::without_repair(wt::line1(strategy("DED"))));
    const auto l2 = lumped(core::without_repair(wt::line2(strategy("DED"))));
    const auto r1 = core::reliability_series(l1, times);
    const auto r2 = core::reliability_series(l2, times);
    EXPECT_NEAR(r1.front(), 1.0, 1e-9);
    EXPECT_NEAR(r2.front(), 1.0, 1e-9);
    for (std::size_t i = 1; i < times.size(); ++i) {
        EXPECT_LE(r1[i], r1[i - 1] + 1e-12);            // monotone decay
        EXPECT_GT(r2[i] + 1e-12, r1[i]) << times[i];    // paper: line 2 more reliable
    }
    EXPECT_LT(r1.back(), 0.01);  // ~0 at 1000 h (paper's figure)
}

TEST(Fig3Reliability, MatchesIndependentComponentClosedForm) {
    // Without repair the components are independent; R(t) has a product form.
    const auto l2 = lumped(core::without_repair(wt::line2(strategy("DED"))));
    const double t = 200.0;
    const std::vector<double> times{0.0, t};
    const double measured = core::reliability_series(l2, times).back();
    const double e_st = std::exp(-3.0 * t / 2000.0);
    const double e_sf = std::exp(-2.0 * t / 1000.0);
    const double e_res = std::exp(-t / 6000.0);
    const double p = std::exp(-t / 500.0);
    const double pumps = p * p * p + 3.0 * p * p * (1.0 - p);  // >= 2 of 3 up
    EXPECT_NEAR(measured, e_st * e_sf * e_res * pumps, 1e-9);
}

TEST(Fig4And5Survivability, OrderingsAndLimits) {
    const auto times = arcade::time_grid(4.5, 10);
    const auto disaster = wt::disaster1(wt::line1(strategy("DED")));
    const auto ded = lumped(wt::line1(strategy("DED")));
    const auto frf1 = lumped(wt::line1(strategy("FRF-1")));
    const auto frf2 = lumped(wt::line1(strategy("FRF-2")));
    for (double x : {1.0 / 3.0, 2.0 / 3.0}) {
        const auto s_ded = core::survivability_series(ded, disaster, x, times);
        const auto s1 = core::survivability_series(frf1, disaster, x, times);
        const auto s2 = core::survivability_series(frf2, disaster, x, times);
        for (std::size_t i = 1; i < times.size(); ++i) {
            // paper: DED fastest, FRF-2 faster than FRF-1
            EXPECT_GE(s_ded[i] + 1e-9, s2[i]) << times[i];
            EXPECT_GE(s2[i] + 1e-9, s1[i]) << times[i];
            // monotone in t
            EXPECT_GE(s1[i] + 1e-12, s1[i - 1]);
        }
        // starts at 0 (disaster state has no pumps)
        EXPECT_NEAR(s1.front(), 0.0, 1e-12);
    }
    // recovery to X1 needs one pump repair (1 h): near-complete by 4.5 h
    EXPECT_GT(core::survivability(ded, disaster, 1.0 / 3.0, 4.5), 0.95);
}

TEST(Fig4Survivability, X2SlowerThanX1) {
    const auto disaster = wt::disaster1(wt::line1(strategy("FRF-1")));
    const auto frf1 = lumped(wt::line1(strategy("FRF-1")));
    for (double t : {0.5, 1.0, 2.0, 4.0}) {
        EXPECT_GE(core::survivability(frf1, disaster, 1.0 / 3.0, t) + 1e-9,
                  core::survivability(frf1, disaster, 2.0 / 3.0, t))
            << t;
    }
}

TEST(Fig4Survivability, DedMatchesErlangClosedForm) {
    // DED, Disaster 1, X1: need >=1 of 4 pumps back, each repairing at rate
    // 1/h in parallel, while other components may fail.  Other phases only
    // LOWER service below 1/3 if a whole phase dies (prob ~0 in 4.5 h), so
    // P ~ P(min of 4 exp(1) <= t) = 1 - e^{-4t}.
    const auto ded = lumped(wt::line1(strategy("DED")));
    const auto disaster = wt::disaster1(ded.model());
    for (double t : {0.25, 0.5, 1.0}) {
        EXPECT_NEAR(core::survivability(ded, disaster, 1.0 / 3.0, t),
                    1.0 - std::exp(-4.0 * t), 5e-3)
            << t;
    }
}

TEST(Fig8Survivability, Fff1SlowestToX1) {
    // Paper: "FFF-1 clearly provides the slowest recovery to X1" because the
    // reservoir is repaired last under FFF.
    const auto disaster = wt::disaster2();
    const auto times = arcade::time_grid(100.0, 11);
    const double x1 = 1.0 / 3.0;
    const auto fff1 = core::survivability_series(lumped(wt::line2(strategy("FFF-1"))),
                                                 disaster, x1, times);
    for (const auto* other : {"DED", "FRF-1", "FRF-2", "FFF-2"}) {
        const auto s = core::survivability_series(lumped(wt::line2(strategy(other))),
                                                  disaster, x1, times);
        for (std::size_t i = 2; i < times.size(); ++i) {
            EXPECT_GE(s[i] + 1e-9, fff1[i]) << other << " t=" << times[i];
        }
    }
}

TEST(Fig9Survivability, OrderingFlipsAtX3) {
    // Paper: at X3 the sand filter matters more than the reservoir, so FFF
    // (sand filter early) beats FRF (sand filter last).
    const auto disaster = wt::disaster2();
    const double x3 = 2.0 / 3.0;
    for (double t : {40.0, 60.0, 80.0, 100.0}) {
        const double fff2 =
            core::survivability(lumped(wt::line2(strategy("FFF-2"))), disaster, x3, t);
        const double frf2 =
            core::survivability(lumped(wt::line2(strategy("FRF-2"))), disaster, x3, t);
        EXPECT_GT(fff2 + 1e-9, frf2) << t;
    }
    // For one crew the exact solution makes the two curves essentially
    // coincide (within 1e-2 absolute): both policies schedule the softener
    // repair — which X3 does not need — before the last needed repair, so
    // the work to reach X3 is identical.  The paper's visible FFF-1 lead is
    // another instance of its one-crew solver noise; see README.md,
    // "Differences from the paper".
    for (double t : {30.0, 60.0, 100.0}) {
        const double fff1 =
            core::survivability(lumped(wt::line2(strategy("FFF-1"))), disaster, x3, t);
        const double frf1 =
            core::survivability(lumped(wt::line2(strategy("FRF-1"))), disaster, x3, t);
        EXPECT_NEAR(fff1, frf1, 1e-2) << t;
    }
}

TEST(Fig6InstCost, StartLevelsAndAsymptotes) {
    const auto disaster = wt::disaster1(wt::line1(strategy("DED")));
    const std::vector<double> t0{0.0};
    const std::vector<double> t_inf{0.0, 400.0};

    // t=0: four failed pumps cost 12; DED has 7 idle crews (11 - 4 busy).
    const auto ded = lumped(wt::line1(strategy("DED")));
    EXPECT_NEAR(core::instantaneous_cost_series(ded, disaster, t0).front(), 19.0, 1e-9);
    const auto frf1 = lumped(wt::line1(strategy("FRF-1")));
    EXPECT_NEAR(core::instantaneous_cost_series(frf1, disaster, t0).front(), 12.0, 1e-9);
    const auto frf2 = lumped(wt::line1(strategy("FRF-2")));
    EXPECT_NEAR(core::instantaneous_cost_series(frf2, disaster, t0).front(), 12.0, 1e-9);

    // t -> inf: cost converges towards the steady-state level, dominated by
    // the idle-crew rates (11 / 1 / 2) plus the small failed-component term.
    const double ded_inf = core::instantaneous_cost_series(ded, disaster, t_inf).back();
    EXPECT_NEAR(ded_inf, core::steady_state_cost(ded), 0.05);
    EXPECT_GT(ded_inf, 10.5);
    const double frf1_inf = core::instantaneous_cost_series(frf1, disaster, t_inf).back();
    EXPECT_LT(frf1_inf, 3.0);  // ~1 idle crew + failed-component residue
    const double frf2_inf = core::instantaneous_cost_series(frf2, disaster, t_inf).back();
    EXPECT_GT(frf2_inf, frf1_inf);  // second idle crew costs more at rest
}

TEST(Fig7AccCost, DedHighestAndLinearTail) {
    const auto disaster = wt::disaster1(wt::line1(strategy("DED")));
    const auto times = arcade::time_grid(10.0, 11);
    const auto ded = core::accumulated_cost_series(lumped(wt::line1(strategy("DED"))),
                                                   disaster, times);
    const auto frf1 = core::accumulated_cost_series(lumped(wt::line1(strategy("FRF-1"))),
                                                    disaster, times);
    const auto frf2 = core::accumulated_cost_series(lumped(wt::line1(strategy("FRF-2"))),
                                                    disaster, times);
    EXPECT_NEAR(ded.front(), 0.0, 1e-12);
    for (std::size_t i = 1; i < times.size(); ++i) {
        EXPECT_GT(ded[i], frf1[i]);  // paper: DED most expensive
        EXPECT_GT(ded[i], frf2[i]);
    }
    // paper figure: DED accumulates ~110-120 over 10 h
    EXPECT_GT(ded.back(), 100.0);
    EXPECT_LT(ded.back(), 130.0);
    // FRF-2 cheaper than FRF-1 during recovery (paper Section 5)
    EXPECT_LT(frf2[2], frf1[2] + 1.0);
}

TEST(Fig10And11Costs, Fff1ConvergesSlowestAndCostsMost) {
    const auto disaster = wt::disaster2();
    const std::vector<double> t0{0.0};
    const auto times = arcade::time_grid(50.0, 11);
    // all strategies start at 15 = 5 failed components x 3/h (no idle crew)
    for (const auto* name : {"FFF-1", "FFF-2", "FRF-1", "FRF-2"}) {
        const auto model = lumped(wt::line2(strategy(name)));
        EXPECT_NEAR(core::instantaneous_cost_series(model, disaster, t0).front(), 15.0,
                    1e-9)
            << name;
    }
    const auto fff1 = core::accumulated_cost_series(lumped(wt::line2(strategy("FFF-1"))),
                                                    disaster, times);
    const auto frf2 = core::accumulated_cost_series(lumped(wt::line2(strategy("FRF-2"))),
                                                    disaster, times);
    // paper: FFF-1 accumulates the most, FRF-2 the least
    EXPECT_GT(fff1.back(), frf2.back());
}

TEST(Survivability, LumpedAgreesWithIndividualEncoding) {
    const auto disaster = wt::disaster2();
    for (const auto* name : {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
        const auto model = wt::line2(strategy(name));
        const auto ind = core::compile(model);
        const auto lmp = lumped(model);
        for (double x : {1.0 / 3.0, 2.0 / 3.0, 1.0}) {
            EXPECT_NEAR(core::survivability(ind, disaster, x, 20.0),
                        core::survivability(lmp, disaster, x, 20.0), 1e-9)
                << name << " x=" << x;
        }
    }
}

TEST(Costs, LumpedAgreesWithIndividualEncoding) {
    const auto disaster = wt::disaster2();
    const std::vector<double> times{0.0, 5.0, 25.0};
    for (const auto* name : {"FRF-1", "FFF-2"}) {
        const auto model = wt::line2(strategy(name));
        const auto a = core::accumulated_cost_series(core::compile(model), disaster, times);
        const auto b = core::accumulated_cost_series(lumped(model), disaster, times);
        for (std::size_t i = 0; i < times.size(); ++i) {
            EXPECT_NEAR(a[i], b[i], 1e-8) << name << " t=" << times[i];
        }
    }
}
