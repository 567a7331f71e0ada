// The reduction layer: coarsest strong-bisimulation lumping
// (graph::coarsest_lumping), the quotient chain (ctmc::QuotientCtmc), and
// the ReductionPolicy threading through compiler, session and sweep.
//
//  * planted-symmetry chains: the refinement recovers exactly the planted
//    blocks and every solver (transient, steady-state, bounded until,
//    instantaneous + accumulated rewards) agrees between original and
//    quotient;
//  * signature sensitivity: a distinguishing label prevents merging;
//  * the paper's Table 1: auto-lumping the individual-encoding watertree
//    models reaches (or beats) the hand-lumped state counts;
//  * every sweep::paper grid renders numerically identical rows with
//    ReductionPolicy::Auto and ::Off;
//  * under ReductionPolicy::Auto an individual model is explored on the
//    lumped encoding: it reports the full chain's exact state and
//    transition counts on every Table 1 configuration and its preemptive
//    variants (checked integer arithmetic: a count past SIZE_MAX throws),
//    and lumping its lumped chain gives the partition direct lumping of the
//    full chain gives on small generated models; a model without a lumped
//    encoding (FCFS across non-exchangeable components) is explored in full;
//  * Auto's chain is its own coarsest quotient on every Table 1
//    configuration (identity block map), which is why every analysis reads
//    chain() and none a quotient.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "ctmc/bounded_until.hpp"
#include "ctmc/quotient.hpp"
#include "ctmc/steady_state.hpp"
#include "engine/session.hpp"
#include "graph/lumping.hpp"
#include "lumped_counters.hpp"
#include "rewards/rewards.hpp"
#include "support/errors.hpp"
#include "sweep/sweep.hpp"
#include "transient_reference.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace ctmc = arcade::ctmc;
namespace engine = arcade::engine;
namespace graph = arcade::graph;
namespace ref = arcade::testing;  // transient_reference.hpp
namespace sweep = arcade::sweep;
namespace wt = arcade::watertree;

namespace {

/// A chain built to be lumpable by construction: `blocks` macro-states with
/// random inter-block rates, each expanded into `copies` states.  Every copy
/// sends each inter-block rate to ONE random member of the target block (so
/// per-block outgoing sums are bitwise equal across copies) and random
/// intra-block rates are sprinkled in (ordinary lumpability must ignore
/// them).
struct Planted {
    ctmc::Ctmc chain;
    std::vector<std::size_t> block_of;
    std::vector<double> state_values;  ///< block id as a signature value row
    std::size_t blocks;
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
        // Intra-block noise, different per copy: must not affect lumping.
        for (std::size_t i = 0; i + 1 < copies; ++i) {
            builder.add(state(b, i), state(b, i + 1), rate(rng));
        }
    }
    std::vector<double> initial(n, 1.0 / static_cast<double>(n));
    Planted out{ctmc::Ctmc(builder.build(), std::move(initial)), {}, {}, blocks};
    out.block_of.resize(n);
    out.state_values.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        out.block_of[s] = s / copies;
        out.state_values[s] = static_cast<double>(s / copies);
    }
    return out;
}

ctmc::LumpSignature planted_signature(const Planted& planted) {
    ctmc::LumpSignature signature;
    signature.values = {planted.state_values};
    return signature;
}

void expect_near_rel(const std::vector<double>& a, const std::vector<double>& b,
                     double tolerance, const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
        EXPECT_NEAR(a[i], b[i], tolerance * scale) << what << " at " << i;
    }
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    out.reserve(values.size());
    for (const double v : values) out.push_back(graph::double_bits(v));
    return out;
}

/// Bitwise equality of two quotients: block map, CSR arrays, initial
/// distribution and projected labels.
void expect_same_quotient(const ctmc::QuotientCtmc& a, const ctmc::QuotientCtmc& b,
                          const std::string& what) {
    EXPECT_EQ(a.block_map(), b.block_map()) << what;
    const auto& ra = a.chain().rates();
    const auto& rb = b.chain().rates();
    EXPECT_EQ(ra.row_ptr(), rb.row_ptr()) << what;
    EXPECT_EQ(ra.col_idx(), rb.col_idx()) << what;
    EXPECT_EQ(bits_of(ra.values()), bits_of(rb.values())) << what;
    EXPECT_EQ(bits_of(a.chain().initial_distribution()),
              bits_of(b.chain().initial_distribution()))
        << what;
    ASSERT_EQ(a.chain().label_names(), b.chain().label_names()) << what;
    for (const auto& name : a.chain().label_names()) {
        EXPECT_EQ(a.chain().label(name), b.chain().label(name)) << what << " " << name;
    }
}

/// True when two block maps describe the same partition, whatever the
/// block numbering.
bool same_partition(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
    if (a.size() != b.size()) return false;
    std::vector<std::size_t> a_to_b;
    std::vector<std::size_t> b_to_a;
    for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s] >= a_to_b.size()) a_to_b.resize(a[s] + 1, SIZE_MAX);
        if (b[s] >= b_to_a.size()) b_to_a.resize(b[s] + 1, SIZE_MAX);
        if (a_to_b[a[s]] == SIZE_MAX) a_to_b[a[s]] = b[s];
        if (b_to_a[b[s]] == SIZE_MAX) b_to_a[b[s]] = a[s];
        if (a_to_b[a[s]] != b[s] || b_to_a[b[s]] != a[s]) return false;
    }
    return true;
}

/// A small model with `copies` (2–4) interchangeable components in its
/// first phase, a second group of one to three, and randomised rates and
/// repair set-up.  Seeds ≡ 0 (mod 4) repair both groups FCFS in one class,
/// which the lumped encoding cannot represent.
core::ArcadeModel generated_model(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> mttf(20.0, 400.0);
    std::uniform_real_distribution<double> mttr(0.2, 12.0);
    std::uniform_int_distribution<std::size_t> copies(2, 4);
    std::uniform_int_distribution<std::size_t> others(1, 3);
    std::uniform_int_distribution<std::size_t> crews(1, 2);
    const core::RepairPolicy policies[] = {
        core::RepairPolicy::FirstComeFirstServe, core::RepairPolicy::FastestRepairFirst,
        core::RepairPolicy::FastestFailureFirst, core::RepairPolicy::Dedicated};
    core::ModelBuilder builder("generated-" + std::to_string(seed));
    const std::size_t k = copies(rng);
    if (seed % 2 == 0) {
        (void)builder.add_spare_phase("pump", k, k - 1, mttf(rng), mttr(rng));
    } else {
        (void)builder.add_redundant_phase("pump", k, mttf(rng), mttr(rng));
    }
    (void)builder.add_redundant_phase("filter", others(rng), mttf(rng), mttr(rng));
    const core::RepairPolicy policy = policies[seed % 4];
    builder.with_repair(policy, crews(rng),
                        policy != core::RepairPolicy::Dedicated && seed % 3 == 0);
    return builder.build();
}

/// Arbitrary block labels renumbered into first-occurrence order — the
/// numbering graph::coarsest_lumping returns.
graph::Partition first_occurrence(const std::vector<std::size_t>& labels) {
    graph::Partition out;
    out.block_of.resize(labels.size());
    std::unordered_map<std::size_t, std::size_t> remap;
    for (std::size_t v = 0; v < labels.size(); ++v) {
        const auto [it, inserted] = remap.emplace(labels[v], out.count);
        if (inserted) ++out.count;
        out.block_of[v] = it->second;
    }
    return out;
}

/// The round-based reference for graph::coarsest_lumping: split every
/// block by the full signature
///   sig(s) = [ block(s), sorted { (block(target), summed rate) : targets
///              outside block(s) } ]
/// and iterate to a fixed point (Paige–Tarjan style splitting in its
/// round-based signature form), O(rounds × m log n).  Per-(state, block)
/// sums accumulate in sorted bit-pattern order, as in the splitter queue.
/// Returns the partition in first-occurrence numbering and fills `stats`
/// like coarsest_lumping does.
graph::Partition coarsest_lumping_rounds(const arcade::linalg::CsrMatrix& rates,
                                         const std::vector<std::size_t>& initial,
                                         graph::LumpingStats* stats) {
    const std::size_t n = rates.rows();
    graph::Partition partition = first_occurrence(initial);
    std::vector<std::pair<std::size_t, double>> edges;  // (target block, rate)
    std::vector<std::uint64_t> key;
    std::vector<std::size_t> next(n);
    for (;;) {
        std::unordered_map<std::vector<std::uint64_t>, std::size_t, graph::WordVectorHash> ids;
        std::size_t next_count = 0;
        for (std::size_t s = 0; s < n; ++s) {
            const std::size_t own = partition.block_of[s];
            edges.clear();
            const auto cols = rates.row_columns(s);
            const auto vals = rates.row_values(s);
            for (std::size_t k = 0; k < cols.size(); ++k) {
                if (cols[k] == s) continue;  // diagonal entries are not rates
                const std::size_t b = partition.block_of[cols[k]];
                if (b == own) continue;  // intra-block rates are unconstrained
                edges.emplace_back(b, vals[k]);
            }
            if (stats != nullptr) stats->edges_scanned += cols.size();
            std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return graph::double_bits(a.second) < graph::double_bits(b.second);
            });
            key.clear();
            key.push_back(own);
            for (std::size_t k = 0; k < edges.size();) {
                const std::size_t b = edges[k].first;
                double sum = 0.0;
                for (; k < edges.size() && edges[k].first == b; ++k) sum += edges[k].second;
                key.push_back(b);
                key.push_back(graph::double_bits(sum));
            }
            const auto [it, inserted] = ids.emplace(key, next_count);
            if (inserted) ++next_count;
            next[s] = it->second;
        }
        if (next_count == partition.count) break;  // fixed point: lumpable
        partition.block_of = next;
        partition.count = next_count;
    }
    if (stats != nullptr) stats->blocks = partition.count;
    return first_occurrence(partition.block_of);
}

}  // namespace

TEST(CoarsestLumping, TrivialPartitionIsAlwaysLumpable) {
    // Ordinary lumpability does not constrain intra-block rates, so the
    // one-block partition is a fixed point of the refinement: without a
    // signature everything collapses.  (This is why QuotientCtmc demands a
    // signature to be observationally meaningful.)
    const auto planted = make_planted(5, 4, /*seed=*/7);
    std::vector<std::size_t> initial(planted.chain.state_count(), 0);
    EXPECT_EQ(graph::coarsest_lumping(planted.chain.rates(), initial).count, 1u);
}

TEST(CoarsestLumping, RecoversPlantedBlocksFromACoarserSeedPartition) {
    const auto planted = make_planted(5, 4, /*seed=*/7);
    // Seed the refinement with a partition strictly coarser than the
    // planted one (block parity); the pairwise-distinct random inter-block
    // rates force the splits to cascade until exactly the planted blocks
    // remain — never finer (intra-block noise must be ignored).
    std::vector<std::size_t> initial(planted.chain.state_count());
    for (std::size_t s = 0; s < initial.size(); ++s) {
        initial[s] = planted.block_of[s] % 2;
    }
    const auto partition = graph::coarsest_lumping(planted.chain.rates(), initial);
    ASSERT_EQ(partition.count, planted.blocks);
    for (std::size_t s = 0; s < planted.chain.state_count(); ++s) {
        EXPECT_EQ(partition.block_of[s],
                  partition.block_of[planted.block_of[s] * 4])  // block representative
            << s;
    }
}

TEST(CoarsestLumping, SplitterQueueMatchesRoundsOnPlantedAndRandomChains) {
    // Acceptance: the splitter-queue refinement returns the *identical*
    // partition (same block_of array after first-occurrence renumbering) as
    // the round-based reference, on every test chain.
    const auto identical = [](const ctmc::Ctmc& chain,
                              const std::vector<std::size_t>& initial,
                              const std::string& what) {
        graph::LumpingStats splitter_stats;
        graph::LumpingStats rounds_stats;
        const auto splitter = graph::coarsest_lumping(chain.rates(), initial, &splitter_stats);
        const auto rounds = coarsest_lumping_rounds(chain.rates(), initial, &rounds_stats);
        EXPECT_EQ(splitter.count, rounds.count) << what;
        EXPECT_EQ(splitter.block_of, rounds.block_of) << what;
        EXPECT_EQ(splitter_stats.blocks, rounds_stats.blocks) << what;
    };

    for (const unsigned seed : {3u, 7u, 11u, 23u}) {
        const auto planted = make_planted(5, 4, seed);
        // Signature partition (the planted blocks), a coarser seed (parity),
        // and the trivial partition.
        identical(planted.chain, planted.block_of, "planted seed " + std::to_string(seed));
        std::vector<std::size_t> parity(planted.chain.state_count());
        for (std::size_t s = 0; s < parity.size(); ++s) parity[s] = planted.block_of[s] % 2;
        identical(planted.chain, parity, "parity seed " + std::to_string(seed));
        identical(planted.chain,
                  std::vector<std::size_t>(planted.chain.state_count(), 0),
                  "trivial seed " + std::to_string(seed));
    }

    // Fully random chains: every rate distinct, the refinement shatters the
    // partition — the two algorithms must shatter it identically.
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> rate(0.1, 3.0);
    for (int round = 0; round < 3; ++round) {
        const std::size_t n = 40;
        arcade::linalg::CsrBuilder builder(n, n);
        std::uniform_int_distribution<std::size_t> pick(0, n - 1);
        for (std::size_t s = 0; s < n; ++s) {
            for (int k = 0; k < 4; ++k) {
                const std::size_t t = pick(rng);
                if (t != s) builder.add(s, t, rate(rng));
            }
        }
        ctmc::Ctmc chain(builder.build(), std::vector<double>(n, 1.0 / n));
        identical(chain, std::vector<std::size_t>(n, 0), "random " + std::to_string(round));
    }
}

TEST(CoarsestLumping, SplitterQueueMatchesRoundsOnWatertreeEncodings) {
    // The acceptance chains that matter: the paper's compiled models.  The
    // initial partition is the model's measure signature (labels + service
    // levels + cost rates), rebuilt here by exact-value grouping.
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    for (const char* name : {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
        for (const bool individual : {true, false}) {
            const auto model = individual
                                   ? core::compile(wt::line2(wt::strategy(name)))
                                   : core::compile(wt::line2(wt::strategy(name)), lumped);
            // Group states by their full signature rows.
            std::map<std::vector<std::uint64_t>, std::size_t> ids;
            std::vector<std::size_t> initial(model.state_count());
            const auto signature = model.lump_signature();
            for (std::size_t s = 0; s < model.state_count(); ++s) {
                std::vector<std::uint64_t> key;
                for (const auto& label : signature.labels) {
                    key.push_back(model.chain().label(label)[s] ? 1 : 0);
                }
                for (const auto& row : signature.values) {
                    key.push_back(graph::double_bits(row[s]));
                }
                initial[s] = ids.emplace(std::move(key), ids.size()).first->second;
            }
            graph::LumpingStats splitter_stats;
            graph::LumpingStats rounds_stats;
            const auto splitter =
                graph::coarsest_lumping(model.chain().rates(), initial, &splitter_stats);
            const auto rounds =
                coarsest_lumping_rounds(model.chain().rates(), initial, &rounds_stats);
            EXPECT_EQ(splitter.block_of, rounds.block_of)
                << name << (individual ? " individual" : " lumped");
            // The point of the rewrite: the splitter queue scans a fraction
            // of the edges the round-based sweeps do on the individual
            // encoding (deterministic, so this is a hard invariant).
            if (individual) {
                EXPECT_LT(splitter_stats.edges_scanned, rounds_stats.edges_scanned)
                    << name;
            }
        }
    }
}

TEST(CoarsestLumping, InitialPartitionIsNeverCoarsened) {
    // Two bitwise-identical halves forced apart by the initial partition.
    arcade::linalg::CsrBuilder builder(4, 4);
    builder.add(0, 1, 1.0);
    builder.add(1, 0, 1.0);
    builder.add(2, 3, 1.0);
    builder.add(3, 2, 1.0);
    const auto rates = builder.build();
    EXPECT_EQ(graph::coarsest_lumping(rates, {0, 0, 0, 0}).count, 1u);
    EXPECT_EQ(graph::coarsest_lumping(rates, {0, 0, 1, 1}).count, 2u);
}

TEST(CoarsestLumping, DegenerateInputsAgreeBitwiseAcrossAlgorithms) {
    // The worklist refinement and the round-based reference must return the
    // identical partition on the degenerate shapes too: a single-state
    // chain, states with no transitions at all, and disconnected components.
    const auto both = [](const arcade::linalg::CsrMatrix& rates,
                         const std::vector<std::size_t>& initial,
                         const std::string& what) {
        graph::LumpingStats splitter_stats;
        graph::LumpingStats rounds_stats;
        const auto splitter = graph::coarsest_lumping(rates, initial, &splitter_stats);
        const auto rounds = coarsest_lumping_rounds(rates, initial, &rounds_stats);
        EXPECT_EQ(splitter.count, rounds.count) << what;
        EXPECT_EQ(splitter.block_of, rounds.block_of) << what;
        EXPECT_EQ(splitter_stats.blocks, rounds_stats.blocks) << what;
        return splitter;
    };

    // Single-state chain: one block, trivially.
    {
        arcade::linalg::CsrBuilder builder(1, 1);
        const auto partition = both(builder.build(), {0}, "single state");
        EXPECT_EQ(partition.count, 1u);
        EXPECT_EQ(partition.block_of, std::vector<std::size_t>{0});
    }
    // No transitions: the initial partition is already the answer, in
    // first-occurrence numbering.
    {
        arcade::linalg::CsrBuilder builder(4, 4);
        const auto partition = both(builder.build(), {3, 1, 3, 1}, "no transitions");
        EXPECT_EQ(partition.count, 2u);
        EXPECT_EQ(partition.block_of, (std::vector<std::size_t>{0, 1, 0, 1}));
    }
    // Disconnected chain: two 2-cycles with different rates plus two
    // isolated states.
    {
        arcade::linalg::CsrBuilder builder(6, 6);
        builder.add(0, 1, 1.0);
        builder.add(1, 0, 1.0);
        builder.add(2, 3, 2.0);
        builder.add(3, 2, 2.0);
        const auto rates = builder.build();
        // Intra-block rates are unconstrained by ordinary lumpability, so
        // the trivial initial partition is already lumpable — a single
        // absorbing macro state, no matter how disconnected the chain is.
        EXPECT_EQ(both(rates, {0, 0, 0, 0, 0, 0}, "disconnected trivial").count, 1u);
        // Disconnected components never exchange rate, so an initial
        // partition separating only the components cannot refine further.
        EXPECT_EQ(both(rates, {0, 0, 0, 0, 0, 1}, "disconnected sticky").count, 2u);
        // Putting the cycle targets into their own block forces cascading
        // splits: {0,2,4,5} separates by rate into {1,3} (1.0 vs 2.0 vs
        // nothing — an absent edge is a different signature than a zero
        // sum), and the refined blocks then split {1,3} apart in turn.
        const auto partition = both(rates, {0, 1, 0, 1, 0, 0}, "disconnected cascade");
        EXPECT_EQ(partition.count, 5u);
        EXPECT_EQ(partition.block_of[4], partition.block_of[5]);
        EXPECT_NE(partition.block_of[0], partition.block_of[2]);
        EXPECT_NE(partition.block_of[0], partition.block_of[4]);
        EXPECT_NE(partition.block_of[1], partition.block_of[3]);
    }
}

TEST(QuotientCtmc, AgreesWithOriginalOnEverySolver) {
    const auto planted = make_planted(6, 3, /*seed=*/11);
    const ctmc::QuotientCtmc quotient(planted.chain, planted_signature(planted));
    ASSERT_EQ(quotient.block_count(), planted.blocks);
    EXPECT_DOUBLE_EQ(quotient.reduction_ratio(), 3.0);

    const auto& initial = planted.chain.initial_distribution();
    const auto q_initial = quotient.project(initial);

    // Transient distributions project exactly.
    for (const double t : {0.5, 2.0, 10.0}) {
        const auto full = ref::transient_distribution(planted.chain, initial, t);
        const auto lumped = ref::transient_distribution(quotient.chain(), q_initial, t);
        expect_near_rel(quotient.project(full), lumped, 1e-10,
                        "transient t=" + std::to_string(t));
    }

    // Steady state projects exactly.
    expect_near_rel(quotient.project(ctmc::steady_state(planted.chain)),
                    ctmc::steady_state(quotient.chain()), 1e-8, "steady state");

    // Bounded until with block-constant masks.
    std::vector<bool> phi(planted.chain.state_count());
    std::vector<bool> psi(planted.chain.state_count());
    for (std::size_t s = 0; s < phi.size(); ++s) {
        phi[s] = planted.block_of[s] != 1;  // avoid block 1 ...
        psi[s] = planted.block_of[s] == 4;  // ... until block 4
    }
    for (const double t : {0.25, 1.0, 4.0}) {
        const double full = ctmc::bounded_until_probability(planted.chain, initial, phi,
                                                            psi, t);
        const double lumped = ctmc::bounded_until_probability(
            quotient.chain(), q_initial, quotient.project_mask(phi),
            quotient.project_mask(psi), t);
        EXPECT_NEAR(full, lumped, 1e-10) << "bounded until t=" << t;
    }

    // Markov rewards with a block-constant structure.
    const arcade::rewards::RewardStructure reward("value", planted.state_values);
    const arcade::rewards::RewardStructure q_reward(
        "value", quotient.project_values(planted.state_values));
    for (const double t : {0.5, 3.0}) {
        EXPECT_NEAR(
            arcade::rewards::instantaneous_reward(planted.chain, initial, reward, t),
            arcade::rewards::instantaneous_reward(quotient.chain(), q_initial, q_reward, t),
            1e-9)
            << "instantaneous reward t=" << t;
        EXPECT_NEAR(
            arcade::rewards::accumulated_reward(planted.chain, initial, reward, t),
            arcade::rewards::accumulated_reward(quotient.chain(), q_initial, q_reward, t),
            1e-9)
            << "accumulated reward t=" << t;
    }
}

TEST(QuotientCtmc, ProjectSumsMemberMassesPerBlock) {
    const auto planted = make_planted(4, 5, /*seed=*/3);
    const ctmc::QuotientCtmc quotient(planted.chain, planted_signature(planted));
    const auto pi = ctmc::steady_state(planted.chain);
    const auto projected = quotient.project(pi);
    ASSERT_EQ(projected.size(), quotient.block_count());
    std::vector<double> by_hand(quotient.block_count(), 0.0);
    for (std::size_t s = 0; s < pi.size(); ++s) by_hand[quotient.block_of(s)] += pi[s];
    EXPECT_EQ(bits_of(projected), bits_of(by_hand));
    // Block masses are the quotient's own steady state.
    expect_near_rel(projected, ctmc::steady_state(quotient.chain()), 1e-9, "project(pi)");
}

TEST(QuotientCtmc, SignatureLabelPreventsMerging) {
    // Two states with identical dynamics: mergeable with an empty
    // signature, split by a label that distinguishes them.
    arcade::linalg::CsrBuilder builder(2, 2);
    builder.add(0, 1, 1.5);
    builder.add(1, 0, 1.5);
    ctmc::Ctmc chain(builder.build(), {0.5, 0.5});
    chain.set_label("special", {true, false});

    EXPECT_EQ(ctmc::QuotientCtmc(chain, {}).block_count(), 1u);

    ctmc::LumpSignature with_label;
    with_label.labels = {"special"};
    EXPECT_EQ(ctmc::QuotientCtmc(chain, with_label).block_count(), 2u);

    ctmc::LumpSignature unknown;
    unknown.labels = {"missing"};
    EXPECT_THROW((void)ctmc::QuotientCtmc(chain, unknown), arcade::InvalidArgument);
}

TEST(QuotientCtmc, NonConstantProjectionsAreRejected) {
    const auto planted = make_planted(3, 2, /*seed=*/5);
    const ctmc::QuotientCtmc quotient(planted.chain, planted_signature(planted));
    ASSERT_GT(planted.chain.state_count(), quotient.block_count());

    std::vector<bool> mask(planted.chain.state_count(), false);
    mask[0] = true;  // splits block 0 (copies 0 and 1 share it)
    EXPECT_THROW((void)quotient.project_mask(mask), arcade::InvalidArgument);

    std::vector<double> values(planted.chain.state_count(), 0.0);
    values[0] = 1.0;
    EXPECT_THROW((void)quotient.project_values(values), arcade::InvalidArgument);
}

TEST(AutoLumping, ReachesHandLumpedTable1SizesOnLine2) {
    // Acceptance: auto-lumping the paper's (individual) encoding must reach
    // the hand-lumped encoding's Table 1 state counts — or beat them, since
    // the refinement computes the *coarsest* quotient for the measure
    // signature while the hand encoding keeps queue detail the measures
    // never read.
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    for (const char* name : {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
        const auto individual = core::compile(wt::line2(wt::strategy(name)));
        const auto hand = core::compile(wt::line2(wt::strategy(name)), lumped);
        const auto quotient = individual.quotient().first;
        EXPECT_LE(quotient->block_count(), hand.state_count()) << name;
        EXPECT_LE(quotient->chain().transition_count(), hand.transition_count()) << name;
        // Spot-check exactness: availability through the quotient equals the
        // hand-lumped availability.
        EXPECT_NEAR(ctmc::steady_state_probability(quotient->chain(),
                                                   quotient->chain().label("operational")),
                    core::availability(hand), 1e-9)
            << name;
    }
}

TEST(AutoLumping, ReachesHandLumpedTable1SizesOnLine1) {
    // Line 1's 111809-state FRF chain is the paper's largest model; one
    // strategy per policy keeps the test affordable.
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    for (const char* name : {"DED", "FRF-1"}) {
        const auto individual = core::compile(wt::line1(wt::strategy(name)));
        const auto hand = core::compile(wt::line1(wt::strategy(name)), lumped);
        const auto quotient = individual.quotient().first;
        EXPECT_LE(quotient->block_count(), hand.state_count()) << name;
    }
}

TEST(AutoLumping, PaperGridsRenderIdenticalRowsWithReductionOnAndOff) {
    // Acceptance: every sweep::paper grid produces numerically identical
    // rows with reduction on and off.
    using GridFn = sweep::ScenarioGrid (*)();
    const std::pair<const char*, GridFn> grids[] = {
        {"fig3", sweep::paper::fig3},   {"fig4", sweep::paper::fig4},
        {"fig5", sweep::paper::fig5},   {"fig6", sweep::paper::fig6},
        {"fig7", sweep::paper::fig7},   {"fig8", sweep::paper::fig8},
        {"fig9", sweep::paper::fig9},   {"fig10", sweep::paper::fig10},
        {"fig11", sweep::paper::fig11}, {"table1", sweep::paper::table1},
        {"table2", sweep::paper::table2},
        {"everything", sweep::paper::everything},
    };
    engine::AnalysisSession session_off;
    engine::AnalysisSession session_auto;
    sweep::RunnerOptions off;
    off.reduction = core::ReductionPolicy::Off;
    sweep::RunnerOptions automatic;
    automatic.reduction = core::ReductionPolicy::Auto;
    sweep::SweepRunner runner_off(session_off, off);
    sweep::SweepRunner runner_auto(session_auto, automatic);

    for (const auto& [name, fn] : grids) {
        const auto grid = fn();
        const auto baseline = runner_off.run(grid);
        const auto reduced = runner_auto.run(grid);
        ASSERT_EQ(baseline.results.size(), reduced.results.size()) << name;
        for (std::size_t i = 0; i < baseline.results.size(); ++i) {
            const auto& a = baseline.results[i];
            const auto& b = reduced.results[i];
            ASSERT_EQ(a.item.key(), b.item.key()) << name;
            // Model sizes describe the *compiled* model either way; the
            // reduction happens at analysis time.
            EXPECT_EQ(a.model_states, b.model_states) << name;
            expect_near_rel(a.values, b.values, 1e-8,
                            std::string(name) + " " + a.item.key());
        }
    }
}

TEST(AutoCompile, ReportsFullChainSizesOnEveryTable1Configuration) {
    // Acceptance: Auto explores an individual model on the lumped encoding,
    // yet its reported sizes (Table 1, model_states, perfbench's state-count
    // gate) are exactly the full chain's, with and without repair.  The
    // preemptive variants are the only shipped models on the closed form's
    // preemptive branch.
    core::CompileOptions off;
    off.encoding = core::Encoding::Individual;
    core::CompileOptions automatic = off;
    automatic.reduction = core::ReductionPolicy::Auto;
    core::CompileOptions lumped = automatic;
    lumped.encoding = core::Encoding::Lumped;
    std::vector<wt::Strategy> strategies = wt::paper_strategies();
    for (const char* name : {"FRF-1-pre", "FRF-2-pre", "FFF-1-pre", "FFF-2-pre"}) {
        strategies.push_back(wt::strategy(name));
    }
    std::size_t checked = 0;
    for (const int line : {1, 2}) {
        for (const auto& strategy : strategies) {
            for (const bool repair : {true, false}) {
                const auto base = wt::line(line, strategy);
                const auto model = repair ? base : core::without_repair(base);
                const std::string label = "line " + std::to_string(line) + " " +
                                          strategy.name + (repair ? " repair" : " no-repair");
                const auto full = core::compile(model, off);
                const auto reduced = core::compile(model, automatic);
                const auto hand = core::compile(model, lumped);
                EXPECT_EQ(reduced.chain().state_count(), hand.state_count()) << label;
                EXPECT_LT(reduced.chain().state_count(), full.chain().state_count()) << label;
                EXPECT_EQ(reduced.state_count(), full.state_count()) << label;
                EXPECT_EQ(reduced.transition_count(), full.transition_count()) << label;
                // Auto's chain is its own coarsest quotient: every analysis
                // reads chain() and nothing is left to lump.
                const auto quotient = reduced.quotient().first;
                EXPECT_EQ(quotient->block_count(), reduced.chain().state_count()) << label;
                for (std::size_t s = 0; s < quotient->block_map().size(); ++s) {
                    if (quotient->block_of(s) != s) {
                        ADD_FAILURE() << label << ": state " << s << " is in block "
                                      << quotient->block_of(s);
                        break;
                    }
                }
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 36u);
}

TEST(AutoCompile, FullChainSizesUseCheckedIntegerArithmetic) {
    // One redundant phase of k interchangeable FRF pumps, one crew: the
    // lumped chain has k + 1 states, the full chain sum_{j=0..k} k!/j!.
    // k = 20 is the largest that fits a 64-bit size_t; k = 21 (about
    // e·21! = 1.39e20 states) must throw, not wrap.
    const auto pumps = [](std::size_t k) {
        core::ModelBuilder builder("pumps-" + std::to_string(k));
        (void)builder.add_redundant_phase("pump", k, 100.0, 2.0);
        builder.with_repair(core::RepairPolicy::FastestRepairFirst, 1, false);
        return builder.build();
    };
    core::CompileOptions automatic;
    automatic.reduction = core::ReductionPolicy::Auto;
    const auto twenty = core::compile(pumps(20), automatic);
    EXPECT_EQ(twenty.chain().state_count(), 21u);
    EXPECT_EQ(twenty.state_count(), std::size_t{6613313319248080001u});
    EXPECT_THROW((void)core::compile(pumps(21), automatic), arcade::ModelError);

    // The closed form at a size the full chain can check: 6 pumps.
    core::CompileOptions off;
    const auto full = core::compile(pumps(6), off);
    const auto reduced = core::compile(pumps(6), automatic);
    EXPECT_EQ(full.state_count(), 1957u);  // sum_{j=0..6} 6!/j!
    EXPECT_EQ(reduced.state_count(), full.state_count());
    EXPECT_EQ(reduced.transition_count(), full.transition_count());
}

TEST(AutoCompile, NonLumpableModelsExploreTheFullChain) {
    // FCFS across two groups has no lumped encoding: asking for it throws,
    // and Auto explores the individual model in full, as Off does, then
    // lumps it exactly as direct lumping of the Off chain does.
    core::CompileOptions off;
    core::CompileOptions automatic;
    automatic.reduction = core::ReductionPolicy::Auto;
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    std::size_t checked = 0;
    for (unsigned seed = 0; seed < 24; seed += 4) {
        const auto model = generated_model(seed);
        const std::string label = "seed " + std::to_string(seed);
        EXPECT_THROW((void)core::compile(model, lumped), arcade::ModelError) << label;
        const auto full = core::compile(model, off);
        const auto reduced = core::compile(model, automatic);
        EXPECT_EQ(reduced.chain().state_count(), reduced.state_count()) << label;
        EXPECT_EQ(reduced.state_count(), full.state_count()) << label;
        EXPECT_EQ(reduced.transition_count(), full.transition_count()) << label;
        expect_same_quotient(*reduced.quotient().first,
                             ctmc::QuotientCtmc(full.chain(), full.lump_signature()), label);
        ++checked;
    }
    EXPECT_EQ(checked, 6u);
}

TEST(AutoCompile, DisasterStateStandsForTheFullChainDisasterState) {
    // A disaster fails the first components listed in each phase on both
    // encodings.  In a phase listing two groups interleaved (repair times
    // 2, 5 and 2 h under FRF, so each repair class holds one group), the
    // lumped disaster state must stand for the individual one rather than
    // fill the first group first.
    core::ModelBuilder builder("interleaved");
    (void)builder.add_redundant_phase("pump", 3, 100.0, 2.0);
    builder.with_repair(core::RepairPolicy::FastestRepairFirst, 1, false);
    auto model = builder.build();
    model.components[1].mttr = 5.0;
    core::CompileOptions off;
    core::CompileOptions automatic;
    automatic.reduction = core::ReductionPolicy::Auto;
    const auto full = core::compile(model, off);
    const auto reduced = core::compile(model, automatic);
    ASSERT_LT(reduced.chain().state_count(), full.chain().state_count());
    const core::Disaster two_down{"two down", {std::size_t{2}}};
    EXPECT_EQ(arcade::testing::lumped_state_of(reduced, full, full.disaster_state(two_down)),
              reduced.disaster_state(two_down));
    for (const double t : {0.5, 5.0}) {
        EXPECT_NEAR(core::survivability(full, two_down, 1.0, t),
                    core::survivability(reduced, two_down, 1.0, t), 1e-9)
            << "t=" << t;
    }
}

TEST(OrbitLumping, TwoStagePartitionMatchesDirectLumpingOnGeneratedModels) {
    // Auto explores on the lumped encoding and lumps the lumped chain (or,
    // for a model without a lumped encoding, the full chain); Off explores
    // the full chain and lumps it directly.  Both reach the same partition
    // of the full chain, the same reported sizes and the same solver
    // results.
    core::CompileOptions off;
    off.encoding = core::Encoding::Individual;
    core::CompileOptions automatic = off;
    automatic.reduction = core::ReductionPolicy::Auto;
    for (unsigned seed = 0; seed < 24; ++seed) {
        const auto model = generated_model(seed);
        const std::string label = "seed " + std::to_string(seed);
        const auto full = core::compile(model, off);
        const auto reduced = core::compile(model, automatic);
        const bool lumped = seed % 4 != 0;
        EXPECT_EQ(reduced.state_count(), full.state_count()) << label;
        EXPECT_EQ(reduced.transition_count(), full.transition_count()) << label;
        if (lumped) {
            EXPECT_LT(reduced.chain().state_count(), full.state_count()) << label;
        } else {
            EXPECT_EQ(reduced.chain().state_count(), full.state_count()) << label;
        }

        const auto two_stage = reduced.quotient().first;
        const ctmc::QuotientCtmc direct(full.chain(), full.lump_signature());
        ASSERT_EQ(two_stage->block_count(), direct.block_count()) << label;
        EXPECT_LT(two_stage->block_count(), full.state_count()) << label;
        // The two-stage partition, spread over the full chain's states.
        std::vector<std::size_t> spread(full.chain().state_count());
        for (std::size_t s = 0; s < spread.size(); ++s) {
            const std::size_t state =
                lumped ? arcade::testing::lumped_state_of(reduced, full, s) : s;
            ASSERT_NE(state, SIZE_MAX) << label << " state " << s;
            spread[s] = two_stage->block_of(state);
        }
        ASSERT_TRUE(same_partition(spread, direct.block_map())) << label;
        // block_in_a[b] = the two-stage block holding direct block b.
        std::vector<std::size_t> block_in_a(direct.block_count());
        for (std::size_t s = 0; s < spread.size(); ++s) block_in_a[direct.block_of(s)] = spread[s];
        const auto in_direct_order = [&](const std::vector<double>& per_a_block) {
            std::vector<double> out(block_in_a.size());
            for (std::size_t b = 0; b < out.size(); ++b) out[b] = per_a_block[block_in_a[b]];
            return out;
        };

        // Every solver agrees between the two quotients ...
        const auto& a = two_stage->chain();
        const auto& b = direct.chain();
        expect_near_rel(in_direct_order(ctmc::steady_state(a)), ctmc::steady_state(b), 1e-12,
                        label + " steady state");
        const core::Disaster two_down{"two down", {std::size_t{2}, std::size_t{0}}};
        const auto initial = two_stage->project(reduced.disaster_distribution(two_down));
        const auto direct_initial = direct.project(full.disaster_distribution(two_down));
        EXPECT_EQ(in_direct_order(initial), direct_initial) << label;
        const auto a_down = two_stage->project_mask(reduced.chain().label("down"));
        const auto b_down = direct.project_mask(full.chain().label("down"));
        const auto a_up = two_stage->project_mask(reduced.chain().label("operational"));
        const auto b_up = direct.project_mask(full.chain().label("operational"));
        const std::vector<bool> a_all(a.state_count(), true);
        const std::vector<bool> b_all(b.state_count(), true);
        const arcade::rewards::RewardStructure a_cost(
            "cost", two_stage->project_values(reduced.cost_reward().state_rates()));
        const arcade::rewards::RewardStructure b_cost(
            "cost", direct.project_values(full.cost_reward().state_rates()));
        for (const double t : {0.5, 5.0, 40.0}) {
            const std::string at = label + " t=" + std::to_string(t);
            expect_near_rel(in_direct_order(ref::transient_distribution(a, initial, t)),
                            ref::transient_distribution(b, direct_initial, t), 1e-12,
                            at + " transient");
            EXPECT_NEAR(ctmc::bounded_until_probability(a, initial, a_all, a_up, t),
                        ctmc::bounded_until_probability(b, direct_initial, b_all, b_up, t),
                        1e-12)
                << at << " survivability";
            EXPECT_NEAR(ctmc::bounded_until_probability(a, a.initial_distribution(), a_all,
                                                        a_down, t),
                        ctmc::bounded_until_probability(b, b.initial_distribution(), b_all,
                                                        b_down, t),
                        1e-12)
                << at << " unreliability";
            EXPECT_NEAR(arcade::rewards::instantaneous_reward(a, initial, a_cost, t),
                        arcade::rewards::instantaneous_reward(b, direct_initial, b_cost, t),
                        1e-12)
                << at << " instantaneous cost";
            EXPECT_NEAR(arcade::rewards::accumulated_reward(a, initial, a_cost, t),
                        arcade::rewards::accumulated_reward(b, direct_initial, b_cost, t),
                        1e-12)
                << at << " accumulated cost";
        }
        // ... and with the full chain, to the solvers' precision.
        EXPECT_NEAR(core::availability(reduced), core::availability(full), 1e-9) << label;
    }
}

TEST(OrbitLumping, LumpedAndOrbitExploredChainsLumpDirectly) {
    // An individual model explored on the lumped encoding and a lumped
    // model: both quotients are exactly what direct lumping of their
    // chains builds.
    for (unsigned seed = 0; seed < 8; ++seed) {
        const auto model = generated_model(seed);
        const std::string label = "seed " + std::to_string(seed);

        core::CompileOptions reduced;
        reduced.encoding = core::Encoding::Individual;
        reduced.reduction = core::ReductionPolicy::Auto;
        const auto explored = core::compile(model, reduced);
        expect_same_quotient(*explored.quotient().first,
                             ctmc::QuotientCtmc(explored.chain(), explored.lump_signature()),
                             label + " individual");

        // FCFS across the two groups has no lumped encoding.
        if (seed % 4 == 0) continue;
        core::CompileOptions lumped;
        lumped.encoding = core::Encoding::Lumped;
        lumped.reduction = core::ReductionPolicy::Auto;
        const auto hand = core::compile(model, lumped);
        EXPECT_EQ(hand.chain().state_count(), explored.chain().state_count()) << label;
        expect_same_quotient(*hand.quotient().first,
                             ctmc::QuotientCtmc(hand.chain(), hand.lump_signature()),
                             label + " lumped");
        EXPECT_NEAR(core::availability(explored), core::availability(hand), 1e-9) << label;
    }
}
