// Integration tests: the case study's state spaces against the paper's
// Table 1 — the state counts must match EXACTLY (the encoding was
// reverse-engineered from these numbers).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/modules_compiler.hpp"
#include "modules/explorer.hpp"
#include "watertree/watertree.hpp"

namespace wt = arcade::watertree;
namespace core = arcade::core;
namespace modules = arcade::modules;

namespace {

struct Table1Row {
    const char* strategy;
    std::size_t line1_states;
    std::size_t line2_states;
};

// Paper, Table 1 (states).
const Table1Row kTable1[] = {
    {"DED", 2048, 512},
    {"FRF-1", 111809, 8129},
    {"FRF-2", 111809, 8129},
    {"FFF-1", 111809, 8129},
    {"FFF-2", 111809, 8129},
};

const wt::Strategy& strategy_named(const std::string& name) {
    static const auto all = wt::paper_strategies();
    for (const auto& s : all) {
        if (s.name == name) return s;
    }
    throw std::runtime_error("unknown strategy " + name);
}

}  // namespace

TEST(WatertreeStateSpace, Line2MatchesTable1Exactly) {
    for (const auto& row : kTable1) {
        const auto model = wt::line2(strategy_named(row.strategy));
        const auto compiled = core::compile(model);
        EXPECT_EQ(compiled.state_count(), row.line2_states)
            << "strategy " << row.strategy << " (line 2)";
    }
}

TEST(WatertreeStateSpace, Line1MatchesTable1Exactly) {
    for (const auto& row : kTable1) {
        const auto model = wt::line1(strategy_named(row.strategy));
        const auto compiled = core::compile(model);
        EXPECT_EQ(compiled.state_count(), row.line1_states)
            << "strategy " << row.strategy << " (line 1)";
    }
}

TEST(WatertreeStateSpace, DedicatedTransitionCountsMatchTable1) {
    // DED transitions: every component can fail or be repaired in every
    // state: n * 2^n.  Paper: 22528 (line 1); line 2 prints 4606, which is
    // 2 short of 9*512 — we take the analytic value as authoritative.
    const auto ded = strategy_named("DED");
    EXPECT_EQ(core::compile(wt::line1(ded)).transition_count(), 22528u);
    EXPECT_EQ(core::compile(wt::line2(ded)).transition_count(), 4608u);
}

TEST(WatertreeStateSpace, SecondCrewAddsOneTransitionPerQueueingState) {
    // Paper: FRF-2 has exactly 111797 (line 1) / 8119 (line 2) more
    // transitions than FRF-1 — one extra repair transition in every state
    // with a non-empty waiting queue.
    const auto frf1_l2 = core::compile(wt::line2(strategy_named("FRF-1")));
    const auto frf2_l2 = core::compile(wt::line2(strategy_named("FRF-2")));
    EXPECT_EQ(frf2_l2.transition_count() - frf1_l2.transition_count(), 8119u);

    const auto fff1_l2 = core::compile(wt::line2(strategy_named("FFF-1")));
    const auto fff2_l2 = core::compile(wt::line2(strategy_named("FFF-2")));
    EXPECT_EQ(fff2_l2.transition_count() - fff1_l2.transition_count(), 8119u);
}

TEST(WatertreeStateSpace, LumpedEncodingIsOrdersOfMagnitudeSmaller) {
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    const auto frf1 = core::compile(wt::line2(strategy_named("FRF-1")), lumped);
    EXPECT_LT(frf1.state_count(), 1000u);
    const auto ded = core::compile(wt::line2(strategy_named("DED")), lumped);
    EXPECT_LT(ded.state_count(), 200u);
}

TEST(WatertreeStateSpace, ServiceIntervalsMatchPaper) {
    const auto l1 = wt::line1(strategy_named("DED"));
    const auto bounds1 = wt::service_interval_bounds(l1);
    // Line 1: X1=[1/3,..), X2=[2/3,..), X3=[1,1]
    ASSERT_EQ(bounds1.size(), 3u);
    EXPECT_NEAR(bounds1[0], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(bounds1[1], 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(bounds1[2], 1.0, 1e-12);

    const auto l2 = wt::line2(strategy_named("DED"));
    const auto bounds2 = wt::service_interval_bounds(l2);
    // Line 2: X1=1/3, X2=1/2, X3=2/3, X4=1
    ASSERT_EQ(bounds2.size(), 4u);
    EXPECT_NEAR(bounds2[0], 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(bounds2[1], 1.0 / 2.0, 1e-12);
    EXPECT_NEAR(bounds2[2], 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(bounds2[3], 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Chain pins: every shipped chain, bit for bit.  The digest is FNV-1a over
// row_ptr, col_idx, the bit patterns of the rate values, the service levels
// and the cost rates (for modules chains: the bit patterns of every reward
// structure, in name order).  A change to exploration, row assembly or an
// encoder that moves a single bit of any chain fails here.
// ---------------------------------------------------------------------------

namespace {

struct Fnv1a {
    std::uint64_t h = 14695981039346656037ull;
    void word(std::uint64_t w) {
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    /// Each index hashed as one 64-bit word, whatever its stored width, so
    /// the digests do not depend on the index type.
    template <typename T>
    void sizes(const std::vector<T>& v) {
        word(v.size());
        for (const T x : v) word(static_cast<std::uint64_t>(x));
    }
    void doubles(const std::vector<double>& v) {
        word(v.size());
        for (const double x : v) word(std::bit_cast<std::uint64_t>(x));
    }
    void rates(const arcade::linalg::CsrMatrix& m) {
        sizes(m.row_ptr());
        sizes(m.col_idx());
        doubles(m.values());
    }
};

std::string hex(std::uint64_t h) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::string chain_digest(const core::CompiledModel& m) {
    Fnv1a f;
    f.rates(m.chain().rates());
    f.doubles(m.service_levels());
    f.doubles(m.cost_reward().state_rates());
    return hex(f.h);
}

std::string chain_digest(const modules::ExploredModel& m) {
    Fnv1a f;
    f.rates(m.chain.rates());
    for (const auto& [name, reward] : m.reward_structures) f.doubles(reward.state_rates());
    return hex(f.h);
}

struct Pin {
    const char* name;
    const char* digest;
};

// line × strategy × encoding × repair, reduction off.
const Pin kCompilePins[] = {
    {"L1 DED individual repair", "236602b70d4e95b3"},
    {"L1 DED individual no-repair", "145d885c4ff63477"},
    {"L1 DED lumped repair", "d5274c0138608e53"},
    {"L1 DED lumped no-repair", "093adfa42013a8a0"},
    {"L1 FRF-1 individual repair", "772b19eed18439b3"},
    {"L1 FRF-1 individual no-repair", "145d885c4ff63477"},
    {"L1 FRF-1 lumped repair", "b10f742d2e9f8ce6"},
    {"L1 FRF-1 lumped no-repair", "093adfa42013a8a0"},
    {"L1 FRF-2 individual repair", "4746fe902bdb85c8"},
    {"L1 FRF-2 individual no-repair", "145d885c4ff63477"},
    {"L1 FRF-2 lumped repair", "acd7a38be7831d06"},
    {"L1 FRF-2 lumped no-repair", "093adfa42013a8a0"},
    {"L1 FFF-1 individual repair", "37a90963e438ad74"},
    {"L1 FFF-1 individual no-repair", "145d885c4ff63477"},
    {"L1 FFF-1 lumped repair", "b98ec2cd8961491e"},
    {"L1 FFF-1 lumped no-repair", "093adfa42013a8a0"},
    {"L1 FFF-2 individual repair", "7e4d69723532653a"},
    {"L1 FFF-2 individual no-repair", "145d885c4ff63477"},
    {"L1 FFF-2 lumped repair", "8ea800318e0559ca"},
    {"L1 FFF-2 lumped no-repair", "093adfa42013a8a0"},
    {"L2 DED individual repair", "108fdafb45f47060"},
    {"L2 DED individual no-repair", "e0f8cd97d7839b91"},
    {"L2 DED lumped repair", "6939979e585a59db"},
    {"L2 DED lumped no-repair", "c8143b73e69bbe82"},
    {"L2 FRF-1 individual repair", "f3c7e8434ce0afdb"},
    {"L2 FRF-1 individual no-repair", "e0f8cd97d7839b91"},
    {"L2 FRF-1 lumped repair", "43377410a6e8aba9"},
    {"L2 FRF-1 lumped no-repair", "c8143b73e69bbe82"},
    {"L2 FRF-2 individual repair", "41ede6c644513d58"},
    {"L2 FRF-2 individual no-repair", "e0f8cd97d7839b91"},
    {"L2 FRF-2 lumped repair", "d0adb71a7e7efd9e"},
    {"L2 FRF-2 lumped no-repair", "c8143b73e69bbe82"},
    {"L2 FFF-1 individual repair", "231e9795cee9947f"},
    {"L2 FFF-1 individual no-repair", "e0f8cd97d7839b91"},
    {"L2 FFF-1 lumped repair", "a77db574eed494f4"},
    {"L2 FFF-1 lumped no-repair", "c8143b73e69bbe82"},
    {"L2 FFF-2 individual repair", "26817aa29afe2ad6"},
    {"L2 FFF-2 individual no-repair", "e0f8cd97d7839b91"},
    {"L2 FFF-2 lumped repair", "f15685a8d899ab56"},
    {"L2 FFF-2 lumped no-repair", "c8143b73e69bbe82"},
};

// Line 1, individual encoding, with repair, explored on its symmetry orbits.
const Pin kSymmetryPins[] = {
    {"L1 DED", "d5274c0138608e53"},
    {"L1 FRF-1", "b10f742d2e9f8ce6"},
    {"L1 FRF-2", "acd7a38be7831d06"},
    {"L1 FFF-1", "b98ec2cd8961491e"},
    {"L1 FFF-2", "8ea800318e0559ca"},
};

// modules::explore of the line-2 to_reactive_modules translations.
const Pin kModulesPins[] = {
    {"L2 DED", "6ca704ab68c1b970"},
    {"L2 FRF-1", "88c5a19d6792c224"},
    {"L2 FRF-2", "152cf79d0277610e"},
    {"L2 FFF-1", "b01d493171e712dc"},
    {"L2 FFF-2", "8419b693a21e9079"},
};

const char* pinned(const Pin* begin, const Pin* end, const std::string& name) {
    for (const Pin* p = begin; p != end; ++p) {
        if (name == p->name) return p->digest;
    }
    return "";
}

}  // namespace

TEST(ChainPins, EveryNativeCompileConfiguration) {
    std::size_t checked = 0;
    for (const int line : {1, 2}) {
        for (const auto& strategy : wt::paper_strategies()) {
            for (const auto encoding : {core::Encoding::Individual, core::Encoding::Lumped}) {
                for (const bool repair : {true, false}) {
                    const auto base = wt::line(line, strategy);
                    core::CompileOptions options;
                    options.encoding = encoding;
                    const auto compiled =
                        core::compile(repair ? base : core::without_repair(base), options);
                    std::string name = line == 1 ? "L1 " : "L2 ";
                    name += strategy.name;
                    name += encoding == core::Encoding::Individual ? " individual" : " lumped";
                    name += repair ? " repair" : " no-repair";
                    EXPECT_EQ(chain_digest(compiled),
                              pinned(std::begin(kCompilePins), std::end(kCompilePins), name))
                        << name;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 40u);
}

TEST(ChainPins, Line1IndividualUnderReductionExploresTheSymmetryChain) {
    // ReductionPolicy::Auto explores on the orbits: bitwise the symmetry
    // chain pinned here, while reporting the full chain's size.
    for (const auto& strategy : wt::paper_strategies()) {
        core::CompileOptions options;
        options.reduction = core::ReductionPolicy::Auto;
        const auto compiled = core::compile(wt::line1(strategy), options);
        const std::string name = std::string("L1 ").append(strategy.name);
        EXPECT_EQ(chain_digest(compiled),
                  pinned(std::begin(kSymmetryPins), std::end(kSymmetryPins), name))
            << name;
    }
}

TEST(ChainPins, ModulesExplorerLine2Translations) {
    for (const auto& strategy : wt::paper_strategies()) {
        const auto explored = modules::explore(core::to_reactive_modules(wt::line2(strategy)));
        const std::string name = std::string("L2 ").append(strategy.name);
        EXPECT_EQ(chain_digest(explored),
                  pinned(std::begin(kModulesPins), std::end(kModulesPins), name))
            << name;
    }
}
