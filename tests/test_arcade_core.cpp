// Unit tests: Arcade model validation, fault/service trees, and the
// compiler's semantics on systems with closed-form answers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "arcade/compiler.hpp"
#include "arcade/fault_tree.hpp"
#include "arcade/measures.hpp"
#include "arcade/types.hpp"
#include "ctmc/steady_state.hpp"
#include "support/errors.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;

TEST(ArcadeModel, ValidationCatchesStructuralErrors) {
    core::ArcadeModel m;
    EXPECT_THROW(m.validate(), arcade::ModelError);  // no components

    core::ModelBuilder ok("ok");
    ok.add_redundant_phase("a", 2, 10, 1);
    ok.with_repair(core::RepairPolicy::Dedicated);
    EXPECT_NO_THROW(ok.build());

    // duplicate coverage by two repair units
    auto model = ok.build();
    model.repair_units.push_back(model.repair_units[0]);
    EXPECT_THROW(model.validate(), arcade::ModelError);

    // bad priorities arity
    core::ModelBuilder prio("prio");
    prio.add_redundant_phase("a", 2, 10, 1);
    core::RepairUnit ru;
    ru.name = "ru";
    ru.policy = core::RepairPolicy::Priority;
    ru.components = {0, 1};
    ru.priorities = {1};  // wrong length
    prio.with_repair_unit(ru);
    EXPECT_THROW(prio.build(), arcade::ModelError);
}

TEST(ArcadeModel, RatesMustBePositiveAndFinite) {
    // An infinite MTTF or MTTR has rate 0: compile used to abort on it.  A
    // subnormal one has an infinite rate, which used to reach the chain.
    const double inf = std::numeric_limits<double>::infinity();
    const double subnormal = 5e-324;
    ASSERT_TRUE(std::isinf(1.0 / subnormal));
    for (const auto& [mttf, mttr, quantity] :
         {std::tuple{inf, 1.0, "MTTF"}, std::tuple{10.0, inf, "MTTR"},
          std::tuple{subnormal, 1.0, "MTTF"}, std::tuple{10.0, subnormal, "MTTR"}}) {
        core::ModelBuilder ok("m");
        ok.add_redundant_phase("a", 2, 10, 1);
        ok.with_repair(core::RepairPolicy::FastestRepairFirst);
        auto model = ok.build();
        model.components[1].mttf = mttf;
        model.components[1].mttr = mttr;
        try {
            (void)core::compile(model);
            ADD_FAILURE() << "expected ModelError for mttf " << mttf << ", mttr " << mttr;
        } catch (const arcade::ModelError& e) {
            EXPECT_NE(std::string(e.what()).find("component 'a2' has " + std::string(quantity)),
                      std::string::npos)
                << e.what();
        }
    }
    // The case study's parameters reach validation through the builder.
    arcade::watertree::Parameters params;
    params.pump_mttf = inf;
    EXPECT_THROW((void)arcade::watertree::line1(arcade::watertree::strategy("FRF-1"), params),
                 arcade::ModelError);
    params = {};
    params.sandfilter_mttr = subnormal;
    EXPECT_THROW((void)arcade::watertree::line2(arcade::watertree::strategy("DED"), params),
                 arcade::ModelError);
}

TEST(ArcadeModel, PolicyStringsRoundTrip) {
    using core::RepairPolicy;
    for (auto p : {RepairPolicy::None, RepairPolicy::Dedicated,
                   RepairPolicy::FirstComeFirstServe, RepairPolicy::FastestRepairFirst,
                   RepairPolicy::FastestFailureFirst, RepairPolicy::Priority}) {
        EXPECT_EQ(core::repair_policy_from_string(core::to_string(p)), p);
    }
    EXPECT_THROW((void)core::repair_policy_from_string("bogus"), arcade::InvalidArgument);
}

TEST(FaultTree, QualitativeGateSemantics) {
    using FT = core::FaultTree;
    const auto tree = FT::any_of({FT::literal(0), FT::all_of({FT::literal(1), FT::literal(2)}),
                                  FT::k_of_n(2, {FT::literal(3), FT::literal(4), FT::literal(5)})});
    // all up
    EXPECT_FALSE(tree.failed({true, true, true, true, true, true}));
    // OR literal
    EXPECT_TRUE(tree.failed({false, true, true, true, true, true}));
    // AND needs both
    EXPECT_FALSE(tree.failed({true, false, true, true, true, true}));
    EXPECT_TRUE(tree.failed({true, false, false, true, true, true}));
    // 2-of-3
    EXPECT_FALSE(tree.failed({true, true, true, false, true, true}));
    EXPECT_TRUE(tree.failed({true, true, true, false, false, true}));
}

TEST(FaultTree, QuantitativeDualGates) {
    using FT = core::FaultTree;
    // Fault-AND of 3 literals -> service mean: 2 of 3 up => 2/3.
    const auto and3 = FT::all_of({FT::literal(0), FT::literal(1), FT::literal(2)});
    EXPECT_NEAR(and3.service_level({true, true, false}), 2.0 / 3.0, 1e-12);
    // Fault-OR -> service min.
    const auto or2 = FT::any_of({FT::literal(0), FT::literal(1)});
    EXPECT_NEAR(or2.service_level({true, false}), 0.0, 1e-12);
    EXPECT_NEAR(or2.service_level({true, true}), 1.0, 1e-12);
    // 2-of-4 fault gate -> spare gate min(1, up/3).
    const auto spare =
        FT::k_of_n(2, {FT::literal(0), FT::literal(1), FT::literal(2), FT::literal(3)});
    EXPECT_NEAR(spare.service_level({true, true, true, true}), 1.0, 1e-12);
    EXPECT_NEAR(spare.service_level({true, true, true, false}), 1.0, 1e-12);
    EXPECT_NEAR(spare.service_level({true, true, false, false}), 2.0 / 3.0, 1e-12);
}

TEST(FaultTree, PhaseTreesAgreeWithPhaseServiceLevel) {
    core::ModelBuilder builder("line");
    builder.add_redundant_phase("st", 3, 2000, 5);
    builder.add_redundant_phase("res", 1, 6000, 12);
    builder.add_spare_phase("pump", 4, 3, 500, 1);
    builder.with_repair(core::RepairPolicy::Dedicated);
    const auto model = builder.build();
    const auto down = core::FaultTree::down_tree(model);
    const auto total = core::FaultTree::total_failure_tree(model);

    // enumerate all 2^8 component-status combinations
    const std::size_t n = model.components.size();
    for (std::size_t mask = 0; mask < (1u << n); ++mask) {
        std::vector<bool> up(n);
        for (std::size_t c = 0; c < n; ++c) up[c] = ((mask >> c) & 1u) != 0;
        std::vector<std::size_t> per_phase(model.phases.size(), 0);
        for (std::size_t p = 0; p < model.phases.size(); ++p) {
            for (std::size_t c : model.phases[p].components) {
                if (up[c]) ++per_phase[p];
            }
        }
        const double service = core::phase_service_level(model, per_phase);
        // down tree == "not fully operational" == service < 1
        EXPECT_EQ(down.failed(up), service < 1.0 - 1e-12) << mask;
        // total failure tree == no service at all
        EXPECT_EQ(total.failed(up), service <= 1e-12) << mask;
        // quantitative dual of the total-failure tree equals phase service
        EXPECT_NEAR(total.service_level(up), service, 1e-12) << mask;
    }
}

TEST(FaultTree, AttainableLevelsMatchEnumeration) {
    core::ModelBuilder builder("line");
    builder.add_redundant_phase("a", 3, 100, 1);
    builder.add_spare_phase("b", 3, 2, 100, 1);
    builder.with_repair(core::RepairPolicy::Dedicated);
    const auto model = builder.build();
    const auto levels = core::phase_service_levels(model);
    // a: {0,1/3,2/3,1}; b: {0,1/2,1}; min-combinations: {0,1/3,1/2,2/3,1}
    ASSERT_EQ(levels.size(), 5u);
    EXPECT_NEAR(levels[1], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(levels[2], 1.0 / 2.0, 1e-12);
    EXPECT_NEAR(levels[3], 2.0 / 3.0, 1e-12);
}

TEST(Compiler, SingleComponentIsTwoStateChain) {
    core::ModelBuilder builder("single");
    builder.add_redundant_phase("c", 1, 100.0, 4.0);
    builder.with_repair(core::RepairPolicy::Dedicated);
    const auto compiled = core::compile(builder.build());
    EXPECT_EQ(compiled.state_count(), 2u);
    EXPECT_NEAR(core::availability(compiled), 100.0 / 104.0, 1e-10);
}

TEST(Compiler, StateFieldsPastTheInt16LimitThrowBeforeExploring) {
    // One phase of n components under dedicated repair: the lumped
    // encoding's failed counter ranges over [0, n].  The encoders hold
    // fields in int16, so n = 32767 compiles and n = 32768 must be refused
    // up front rather than wrap once the counter passes 32767.  One
    // required component keeps the service levels (and labels) at two.
    const auto model = [](std::size_t n) {
        core::ModelBuilder builder("wide");
        builder.add_spare_phase("c", n, 1, 100.0, 4.0);
        builder.with_repair(core::RepairPolicy::Dedicated);
        return builder.build();
    };
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    EXPECT_EQ(core::compile(model(32767), lumped).state_count(), 32768u);
    try {
        (void)core::compile(model(32768), lumped);
        FAIL() << "32768 components compiled";
    } catch (const arcade::ModelError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("waiting counter of a group in phase 'c'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("ranges up to 32768"), std::string::npos) << what;
        EXPECT_NE(what.find("32767"), std::string::npos) << what;
    }

    // The individual encoding's FIFO ranks range over [0, class size].
    core::ModelBuilder queued("queued");
    queued.add_spare_phase("c", 32768, 1, 100.0, 4.0);
    queued.with_repair(core::RepairPolicy::FirstComeFirstServe);
    try {
        (void)core::compile(queued.build());
        FAIL() << "32768 queued components compiled";
    } catch (const arcade::ModelError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("FIFO rank of component"), std::string::npos) << what;
    }
}

TEST(Compiler, FcfsOnIdenticalComponentsMatchesMm1kQueue) {
    // 3 identical components, 1 FCFS crew: the failed-count process is an
    // M/M/1/3-like birth-death chain with state-dependent birth rates
    // (n-k)*lambda and constant death rate mu.
    const double mttf = 50.0;
    const double mttr = 2.0;
    core::ModelBuilder builder("fcfs");
    builder.add_redundant_phase("c", 3, mttf, mttr);
    builder.with_repair(core::RepairPolicy::FirstComeFirstServe, 1);
    const auto compiled = core::compile(builder.build());

    const double lambda = 1.0 / mttf;
    const double mu = 1.0 / mttr;
    // birth-death closed form
    double p[4];
    p[0] = 1.0;
    p[1] = p[0] * 3 * lambda / mu;
    p[2] = p[1] * 2 * lambda / mu;
    p[3] = p[2] * 1 * lambda / mu;
    const double z = p[0] + p[1] + p[2] + p[3];
    EXPECT_NEAR(core::availability(compiled), p[0] / z, 1e-9);
}

TEST(Compiler, CostRatesCountFailedComponentsAndIdleCrews) {
    core::ModelBuilder builder("cost");
    builder.add_redundant_phase("c", 2, 100.0, 1.0);
    builder.with_repair(core::RepairPolicy::FastestRepairFirst, 2);
    const auto compiled = core::compile(builder.build());
    // all-up state: 2 idle crews -> cost 2
    EXPECT_DOUBLE_EQ(compiled.cost_reward().state_rates()[compiled.initial_state()], 2.0);
    // a disaster with both components down: cost 2*3 + 0 idle = 6
    core::Disaster d;
    d.name = "both";
    d.failed_per_phase = {2};
    EXPECT_DOUBLE_EQ(compiled.cost_reward().state_rates()[compiled.disaster_state(d)], 6.0);
}

TEST(Compiler, DisasterStateHasPolicyBestInRepair) {
    // FRF: fastest repair = phase "fast" (mttr 1) over "slow" (mttr 10).
    core::ModelBuilder builder("d");
    builder.add_redundant_phase("fast", 1, 100.0, 1.0);
    builder.add_redundant_phase("slow", 1, 100.0, 10.0);
    builder.with_repair(core::RepairPolicy::FastestRepairFirst, 1);
    const auto compiled = core::compile(builder.build());
    core::Disaster d;
    d.name = "both";
    d.failed_per_phase = {1, 1};
    const auto& encoded = compiled.encoded_state(compiled.disaster_state(d));
    // layout: [status fast, status slow, rank fast, rank slow]
    EXPECT_EQ(encoded[0], 2);  // fast component is in repair
    EXPECT_EQ(encoded[1], 1);  // slow component waits
}

TEST(Compiler, PreemptiveNeedsNoTrackedSlot) {
    core::ModelBuilder np("np");
    np.add_redundant_phase("a", 2, 100, 1);
    np.add_redundant_phase("b", 2, 100, 10);
    np.with_repair(core::RepairPolicy::FastestRepairFirst, 1, /*preemptive=*/false);
    core::ModelBuilder pre("pre");
    pre.add_redundant_phase("a", 2, 100, 1);
    pre.add_redundant_phase("b", 2, 100, 10);
    pre.with_repair(core::RepairPolicy::FastestRepairFirst, 1, /*preemptive=*/true);
    const auto np_model = core::compile(np.build());
    const auto pre_model = core::compile(pre.build());
    EXPECT_LT(pre_model.state_count(), np_model.state_count());
}

TEST(Compiler, WithoutRepairRemovesAllRepairTransitions) {
    core::ModelBuilder builder("r");
    builder.add_redundant_phase("c", 3, 100.0, 1.0);
    builder.with_repair(core::RepairPolicy::Dedicated);
    const auto stripped = core::compile(core::without_repair(builder.build()));
    EXPECT_EQ(stripped.state_count(), 8u);
    // only failure transitions: 3 * 2^3 / 2 ... every up component can fail:
    // sum over states of #up = 3*4 = 12
    EXPECT_EQ(stripped.transition_count(), 12u);
    // the all-down state is absorbing
    core::Disaster d;
    d.name = "all";
    d.failed_per_phase = {3};
    EXPECT_DOUBLE_EQ(stripped.chain().exit_rate(stripped.disaster_state(d)), 0.0);
}

TEST(Compiler, UnreachableDisasterIsAnError) {
    core::ModelBuilder builder("u");
    builder.add_redundant_phase("c", 2, 100.0, 1.0);
    builder.with_repair(core::RepairPolicy::Dedicated);
    const auto compiled = core::compile(builder.build());
    core::Disaster d;
    d.name = "too-many";
    d.failed_per_phase = {3};  // more than exist
    EXPECT_THROW((void)compiled.disaster_state(d), arcade::Error);
}
