// Integration tests: the case study's state spaces against the paper's
// Table 1 — the state counts must match EXACTLY (the encoding was
// reverse-engineered from these numbers).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/fault_tree.hpp"
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

// ---------------------------------------------------------------------------
// The compiler fills its per-state vectors while exploring.  A reference
// that decodes every explored state afterwards — written here from the
// encodings' documented layouts, in the compiler's summation orders — must
// give the same bits: service levels, cost rates and, for an individual
// model explored on the lumped encoding, the full chain's summed sizes.
// ---------------------------------------------------------------------------

namespace {

/// What the reference needs of a model: components grouped as the lumped
/// encoding groups them (same repair unit, phase, rates, failed-cost rate
/// and priority; first-occurrence order).
struct Decoder {
    const core::ArcadeModel& model;
    std::vector<std::size_t> unit;   // per component; SIZE_MAX = unrepaired
    std::vector<std::size_t> phase;  // per component
    std::vector<std::size_t> group;  // per component
    std::vector<std::size_t> first_member;
    std::vector<std::size_t> group_size;

    explicit Decoder(const core::ArcadeModel& m)
        : model(m),
          unit(m.components.size(), SIZE_MAX),
          phase(m.components.size()),
          group(m.components.size()) {
        std::vector<int> priority(m.components.size(), 0);
        for (std::size_t r = 0; r < m.repair_units.size(); ++r) {
            const auto& ru = m.repair_units[r];
            for (std::size_t i = 0; i < ru.components.size(); ++i) {
                unit[ru.components[i]] = r;
                if (ru.policy == core::RepairPolicy::Priority) {
                    priority[ru.components[i]] = ru.priorities[i];
                }
            }
        }
        for (std::size_t p = 0; p < m.phases.size(); ++p) {
            for (const std::size_t c : m.phases[p].components) phase[c] = p;
        }
        const auto key = [&](std::size_t c) {
            const auto& comp = m.components[c];
            return std::make_tuple(unit[c], phase[c], comp.failure_rate(), comp.repair_rate(),
                                   comp.failed_cost_rate, priority[c]);
        };
        for (std::size_t c = 0; c < m.components.size(); ++c) {
            std::size_t g = 0;
            while (g < first_member.size() && key(first_member[g]) != key(c)) ++g;
            if (g == first_member.size()) {
                first_member.push_back(c);
                group_size.push_back(0);
            }
            group[c] = g;
            ++group_size[g];
        }
    }

    [[nodiscard]] const core::RepairUnit* unit_of_group(std::size_t g) const {
        const std::size_t r = unit[first_member[g]];
        return r == SIZE_MAX ? nullptr : &model.repair_units[r];
    }
    [[nodiscard]] static bool queues(const core::RepairUnit& ru) {
        return ru.policy != core::RepairPolicy::None &&
               ru.policy != core::RepairPolicy::Dedicated;
    }
    [[nodiscard]] std::size_t crews(const core::RepairUnit& ru) const {
        return ru.policy == core::RepairPolicy::Dedicated ? ru.components.size() : ru.crews;
    }

    /// Idle-crew cost of each unit with `down[r]` components down, added in
    /// unit order.
    void add_idle_cost(double& cost, const std::vector<std::size_t>& down) const {
        for (std::size_t r = 0; r < model.repair_units.size(); ++r) {
            const auto& ru = model.repair_units[r];
            if (ru.policy == core::RepairPolicy::None) continue;
            const std::size_t k = crews(ru);
            cost += static_cast<double>(k - std::min(k, down[r])) * ru.idle_cost_rate;
        }
    }

    /// {service, cost} of an individual-encoding state.
    [[nodiscard]] std::pair<double, double> individual(const std::vector<std::int16_t>& v) const {
        std::vector<std::size_t> up(model.phases.size(), 0);
        std::vector<std::size_t> down(model.repair_units.size(), 0);
        double cost = 0.0;
        for (std::size_t c = 0; c < model.components.size(); ++c) {
            if (v[c] == 0) {
                ++up[phase[c]];
                continue;
            }
            cost += model.components[c].failed_cost_rate;
            if (unit[c] != SIZE_MAX) ++down[unit[c]];
        }
        add_idle_cost(cost, down);
        return {core::phase_service_level(model, up), cost};
    }

    /// Down members per group of a lumped-encoding state: its waiting
    /// counter plus the member a non-preemptive queue tracks.
    [[nodiscard]] std::vector<std::size_t> group_down(const std::vector<std::int16_t>& v) const {
        const std::size_t groups = first_member.size();
        std::vector<std::size_t> down(groups);
        for (std::size_t g = 0; g < groups; ++g) {
            down[g] = static_cast<std::size_t>(v[g]);
            const std::size_t r = unit[first_member[g]];
            const auto* ru = unit_of_group(g);
            if (ru != nullptr && queues(*ru) && !ru->preemptive &&
                v[groups + r] == static_cast<std::int16_t>(g + 1)) {
                ++down[g];
            }
        }
        return down;
    }

    /// {service, cost} of a lumped-encoding state.
    [[nodiscard]] std::pair<double, double> lumped(const std::vector<std::int16_t>& v) const {
        const auto down = group_down(v);
        std::vector<std::size_t> up(model.phases.size());
        for (std::size_t p = 0; p < model.phases.size(); ++p) {
            up[p] = model.phases[p].components.size();
        }
        std::vector<std::size_t> unit_down(model.repair_units.size(), 0);
        double cost = 0.0;
        for (std::size_t g = 0; g < down.size(); ++g) {
            up[phase[first_member[g]]] -= down[g];
            cost += static_cast<double>(down[g]) * model.components[first_member[g]].failed_cost_rate;
            if (unit[first_member[g]] != SIZE_MAX) unit_down[unit[first_member[g]]] += down[g];
        }
        add_idle_cost(cost, unit_down);
        return {core::phase_service_level(model, up), cost};
    }

    /// {states, transitions} of the individual chain a lumped state stands
    /// for: the orbit (per group n!/(n-d)! in a queue, C(n, d) otherwise)
    /// times one row (a failure per up component, the repairs in progress).
    [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> orbit(
        const std::vector<std::int16_t>& v) const {
        const std::size_t groups = first_member.size();
        const auto down = group_down(v);
        std::uint64_t states = 1;
        std::uint64_t row = 0;
        std::vector<std::size_t> waiting(model.repair_units.size(), 0);
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t n = group_size[g];
            row += n - down[g];
            const auto* ru = unit_of_group(g);
            std::uint64_t ways = 1;
            for (std::size_t i = 0; i < down[g]; ++i) ways *= n - i;
            if (ru == nullptr || !queues(*ru)) {
                for (std::size_t i = 2; i <= down[g]; ++i) ways /= i;
            }
            states *= ways;
            if (ru != nullptr) waiting[unit[first_member[g]]] += static_cast<std::size_t>(v[g]);
        }
        for (std::size_t r = 0; r < model.repair_units.size(); ++r) {
            const auto& ru = model.repair_units[r];
            if (ru.policy == core::RepairPolicy::Dedicated) {
                row += waiting[r];
            } else if (queues(ru) && ru.preemptive) {
                row += std::min(ru.crews, waiting[r]);
            } else if (queues(ru) && v[groups + r] != 0) {
                row += 1 + std::min(ru.crews - 1, waiting[r]);
            }
        }
        return {states, states * row};
    }
};

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& values) {
    std::vector<std::uint64_t> bits;
    bits.reserve(values.size());
    for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

}  // namespace

TEST(CompileWalk, PerStateVectorsMatchADecodeAfterExploreReference) {
    struct Variant {
        core::Encoding encoding;
        core::ReductionPolicy reduction;
    };
    const Variant variants[] = {{core::Encoding::Individual, core::ReductionPolicy::Off},
                                {core::Encoding::Lumped, core::ReductionPolicy::Off},
                                {core::Encoding::Individual, core::ReductionPolicy::Auto}};
    std::vector<std::string> strategies;
    for (const auto& s : wt::paper_strategies()) {
        strategies.push_back(s.name);
        if (s.policy != core::RepairPolicy::Dedicated) strategies.push_back(s.name + "-pre");
    }
    ASSERT_EQ(strategies.size(), 9u);
    std::size_t checked = 0;
    std::size_t summed = 0;
    for (const int line : {1, 2}) {
        for (const auto& name : strategies) {
            for (const bool with_repair : {true, false}) {
                const auto built = wt::line(line, wt::strategy(name));
                const auto model = with_repair ? built : core::without_repair(built);
                const Decoder decoder(model);
                std::size_t full_states = 0;
                std::size_t full_transitions = 0;
                for (const Variant& variant : variants) {
                    core::CompileOptions options;
                    options.encoding = variant.encoding;
                    options.reduction = variant.reduction;
                    const auto compiled = core::compile(model, options);
                    const std::size_t n = compiled.chain().state_count();
                    const bool lumped_states =
                        compiled.encoded_state(0).size() != 2 * model.components.size();
                    std::vector<double> service(n);
                    std::vector<double> cost(n);
                    std::uint64_t states = 0;
                    std::uint64_t transitions = 0;
                    for (std::size_t s = 0; s < n; ++s) {
                        const auto v = compiled.encoded_state(s);
                        std::tie(service[s], cost[s]) =
                            lumped_states ? decoder.lumped(v) : decoder.individual(v);
                        if (lumped_states) {
                            const auto [orbit_states, orbit_transitions] = decoder.orbit(v);
                            states += orbit_states;
                            transitions += orbit_transitions;
                        }
                    }
                    std::string label = std::to_string(line);
                    label.append(" ").append(name);
                    label.append(with_repair ? "" : " without repair");
                    label.append(lumped_states ? " lumped" : " individual");
                    if (variant.reduction == core::ReductionPolicy::Auto) label.append(" (Auto)");
                    EXPECT_EQ(bit_patterns(compiled.service_levels()), bit_patterns(service))
                        << label;
                    EXPECT_EQ(bit_patterns(compiled.cost_reward().state_rates()),
                              bit_patterns(cost))
                        << label;
                    if (variant.encoding == core::Encoding::Individual &&
                        variant.reduction == core::ReductionPolicy::Off) {
                        full_states = n;
                        full_transitions = compiled.chain().rates().nonzeros();
                    } else if (variant.encoding == core::Encoding::Individual) {
                        // Auto: the closed-form sizes, summed over the lumped
                        // states, are the full chain's.
                        if (lumped_states) {
                            EXPECT_EQ(compiled.state_count(), states) << label;
                            EXPECT_EQ(compiled.transition_count(), transitions) << label;
                            ++summed;
                        }
                        EXPECT_EQ(compiled.state_count(), full_states) << label;
                        EXPECT_EQ(compiled.transition_count(), full_transitions) << label;
                    }
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 108u);
    EXPECT_EQ(summed, 36u);
}
