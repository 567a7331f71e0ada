// Engine layer: packed state store, deterministic exploration,
// analysis-session caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "arcade/modules_compiler.hpp"
#include "engine/explore.hpp"
#include "engine/session.hpp"
#include "engine/state_store.hpp"
#include "linalg/csr_matrix.hpp"
#include "modules/explorer.hpp"
#include "support/errors.hpp"
#include "watertree/watertree.hpp"

namespace engine = arcade::engine;
namespace core = arcade::core;
namespace modules = arcade::modules;
namespace wt = arcade::watertree;

namespace {

std::vector<std::int64_t> roundtrip(const engine::StateLayout& layout,
                                    const std::vector<std::int64_t>& values) {
    std::vector<std::uint64_t> words(layout.words_per_state());
    layout.pack(std::span<const std::int64_t>(values), words.data());
    std::vector<std::int64_t> out(layout.field_count());
    layout.unpack(words.data(), std::span<std::int64_t>(out));
    return out;
}

}  // namespace

TEST(StateLayout, RoundTripBasicRanges) {
    const engine::StateLayout layout({{0, 2}, {0, 9}, {0, 1}, {0, 255}});
    const std::vector<std::int64_t> values{2, 7, 1, 200};
    EXPECT_EQ(roundtrip(layout, values), values);
    EXPECT_EQ(layout.words_per_state(), 1u);
}

TEST(StateLayout, RoundTripNegativeLowerBounds) {
    const engine::StateLayout layout({{-5, 3}, {-100, -50}, {-1, 1}});
    for (const auto& values : std::vector<std::vector<std::int64_t>>{
             {-5, -100, -1}, {3, -50, 1}, {0, -77, 0}}) {
        EXPECT_EQ(roundtrip(layout, values), values);
    }
}

TEST(StateLayout, SingleValueRangesCostZeroBits) {
    // All-constant fields still produce a valid (1-word) layout.
    const engine::StateLayout constant({{7, 7}, {-3, -3}});
    EXPECT_EQ(constant.words_per_state(), 1u);
    EXPECT_EQ(roundtrip(constant, {7, -3}), (std::vector<std::int64_t>{7, -3}));

    // A single-value field between wide fields costs nothing: 2x32 bits
    // plus the constant still fit one word.
    const engine::StateLayout mixed({{0, (1ll << 32) - 1}, {42, 42}, {0, (1ll << 32) - 1}});
    EXPECT_EQ(mixed.words_per_state(), 1u);
    const std::vector<std::int64_t> values{123456789, 42, 987654321};
    EXPECT_EQ(roundtrip(mixed, values), values);
}

TEST(StateLayout, ZeroWidthFieldAfterExactlyFullWord) {
    // 32 two-bit fields fill word 0 exactly; the zero-width field after them
    // must not be assigned shift 64 (which would shift a uint64 by 64, UB).
    std::vector<engine::FieldSpec> fields(32, engine::FieldSpec{0, 3});
    fields.push_back(engine::FieldSpec{5, 5});
    fields.push_back(engine::FieldSpec{0, 1});
    const engine::StateLayout layout(fields);
    std::vector<std::int64_t> values(32, 2);
    values.push_back(5);
    values.push_back(1);
    EXPECT_EQ(roundtrip(layout, values), values);
    std::vector<std::uint64_t> words(layout.words_per_state());
    layout.pack(std::span<const std::int64_t>(values), words.data());
    EXPECT_EQ(layout.extract(words.data(), 32), 5);
    EXPECT_EQ(layout.extract(words.data(), 33), 1);
}

TEST(StateLayout, FieldsNeverStraddleWords) {
    // 40 + 40 bits cannot share a word: second field starts word 1.
    const engine::StateLayout layout({{0, (1ll << 40) - 1}, {0, (1ll << 40) - 1}});
    EXPECT_EQ(layout.words_per_state(), 2u);
    const std::vector<std::int64_t> values{(1ll << 40) - 1, (1ll << 39) + 17};
    EXPECT_EQ(roundtrip(layout, values), values);
}

TEST(StateLayout, ExtractSingleField) {
    const engine::StateLayout layout({{-5, 3}, {0, 100}, {7, 7}});
    std::vector<std::uint64_t> words(layout.words_per_state());
    layout.pack(std::span<const std::int64_t>(std::vector<std::int64_t>{-2, 55, 7}), words.data());
    EXPECT_EQ(layout.extract(words.data(), 0), -2);
    EXPECT_EQ(layout.extract(words.data(), 1), 55);
    EXPECT_EQ(layout.extract(words.data(), 2), 7);
}

TEST(StateLayout, PackRejectsOutOfRangeValues) {
    const engine::StateLayout layout({{0, 2}});
    std::vector<std::uint64_t> words(layout.words_per_state());
    EXPECT_THROW(layout.pack(std::span<const std::int64_t>(std::vector<std::int64_t>{3}), words.data()),
                 arcade::ModelError);
    EXPECT_THROW(layout.pack(std::span<const std::int64_t>(std::vector<std::int64_t>{-1}), words.data()),
                 arcade::ModelError);
    EXPECT_THROW(engine::StateLayout({{2, 1}}), arcade::InvalidArgument);
}

namespace {

/// Reference packer, independent of StateLayout's slot table: assigns the
/// fields word by word (a field that does not fit opens the next word;
/// zero-width fields take no bits) and sets each value bit by bit.
struct ReferencePacking {
    std::vector<std::uint64_t> words{0};
    std::vector<std::size_t> word_of;  ///< word each field was assigned to
};

ReferencePacking reference_pack(const std::vector<engine::FieldSpec>& fields,
                                const std::vector<std::int64_t>& values) {
    ReferencePacking out;
    unsigned used = 0;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const auto low = static_cast<std::uint64_t>(fields[i].low);
        const auto bits =
            static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(fields[i].high) - low));
        if (bits > 64 - used) {
            out.words.push_back(0);
            used = 0;
        }
        out.word_of.push_back(out.words.size() - 1);
        const std::uint64_t raw = static_cast<std::uint64_t>(values[i]) - low;
        for (unsigned b = 0; b < bits; ++b) {
            if (((raw >> b) & 1u) != 0) out.words.back() |= std::uint64_t{1} << (used + b);
        }
        used += bits;
    }
    return out;
}

/// A random multi-word layout: widths 0..64 bits, with zero-width fields as
/// the first and last field and right after fields that fill a word exactly.
std::vector<engine::FieldSpec> random_layout(std::mt19937_64& rng) {
    std::vector<engine::FieldSpec> fields;
    const auto constant = [&] {
        const auto v = static_cast<std::int64_t>(rng() % 2001) - 1000;
        fields.push_back({v, v});
    };
    const auto field_count = 2 + rng() % 40;
    unsigned used = 0;
    if (rng() % 2 == 0) constant();
    for (std::size_t i = 0; i < field_count; ++i) {
        unsigned bits = 0;
        const auto pick = rng() % 10;
        if (pick == 0) {
            constant();
            continue;
        }
        if (pick <= 3 && used < 64) {
            bits = 64 - used;  // fill the current word exactly
        } else {
            bits = 1 + static_cast<unsigned>(rng() % 64);
        }
        const std::uint64_t top = std::uint64_t{1} << (bits - 1);
        const std::uint64_t range = top | (rng() & (top - 1));
        // Keep low + range inside int64: wide fields start at INT64_MIN.
        const std::int64_t low = bits >= 62
                                     ? std::numeric_limits<std::int64_t>::min()
                                     : static_cast<std::int64_t>(rng() % 2001) - 1000;
        fields.push_back(
            {low, static_cast<std::int64_t>(static_cast<std::uint64_t>(low) + range)});
        used = bits > 64 - used ? bits : used + bits;
        if (used == 64 && rng() % 2 == 0) constant();
    }
    if (rng() % 2 == 0) constant();
    return fields;
}

std::int64_t random_value(std::mt19937_64& rng, const engine::FieldSpec& f) {
    const std::uint64_t range = static_cast<std::uint64_t>(f.high) - static_cast<std::uint64_t>(f.low);
    const std::uint64_t offset = range == ~std::uint64_t{0} ? rng() : rng() % (range + 1);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(f.low) + offset);
}

}  // namespace

TEST(StateLayout, PackMatchesABitByBitReferenceOnRandomLayouts) {
    std::mt19937_64 rng(8129);
    std::size_t multi_word = 0;
    std::size_t late_rejections = 0;
    std::size_t zero_width_rejections = 0;
    for (int round = 0; round < 2000; ++round) {
        const auto fields = random_layout(rng);
        const engine::StateLayout layout(fields);
        std::vector<std::int64_t> values;
        for (const auto& f : fields) values.push_back(random_value(rng, f));
        const auto reference = reference_pack(fields, values);
        const auto& expected = reference.words;
        ASSERT_EQ(layout.words_per_state(), expected.size()) << "round " << round;
        if (expected.size() > 1) ++multi_word;

        // Stale words must be overwritten, not OR-ed into.
        std::vector<std::uint64_t> words(expected.size(), 0xa5a5a5a5a5a5a5a5ull);
        layout.pack(std::span<const std::int64_t>(values), words.data());
        ASSERT_EQ(words, expected) << "round " << round;
        std::vector<std::int64_t> back(fields.size());
        layout.unpack(words.data(), std::span<std::int64_t>(back));
        ASSERT_EQ(back, values) << "round " << round;

        // An out-of-range value in a later word or in a zero-width field
        // throws the ModelError naming that field's value and range.
        const auto& word_of = reference.word_of;
        std::vector<std::size_t> targets;
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (word_of[i] > 0 || fields[i].low == fields[i].high) targets.push_back(i);
        }
        if (targets.empty()) continue;
        const std::size_t bad = targets[rng() % targets.size()];
        const auto& f = fields[bad];
        if (f.high == std::numeric_limits<std::int64_t>::max() &&
            f.low == std::numeric_limits<std::int64_t>::min()) {
            continue;  // a full 64-bit field has no out-of-range value
        }
        auto broken = values;
        broken[bad] = f.high < std::numeric_limits<std::int64_t>::max() ? f.high + 1 : f.low - 1;
        const std::string message = "pack: value " + std::to_string(broken[bad]) +
                                    " outside field range [" + std::to_string(f.low) + "," +
                                    std::to_string(f.high) + "]";
        try {
            layout.pack(std::span<const std::int64_t>(broken), words.data());
            FAIL() << "round " << round << ": field " << bad << " accepted " << broken[bad];
        } catch (const arcade::ModelError& e) {
            EXPECT_EQ(std::string(e.what()), message) << "round " << round;
        }
        if (word_of[bad] > 0) ++late_rejections;
        if (f.low == f.high) ++zero_width_rejections;
    }
    EXPECT_GT(multi_word, 1000u);
    EXPECT_GT(late_rejections, 500u);
    EXPECT_GT(zero_width_rejections, 100u);
}

TEST(StateStore, InternDeduplicatesAndSurvivesRehash) {
    const engine::StateLayout layout({{0, 1 << 20}});
    engine::StateStore store(layout);
    std::vector<std::uint64_t> words(layout.words_per_state());
    // Enough states to force several table growths past the initial 1024.
    const std::int64_t n = 5000;
    for (std::int64_t v = 0; v < n; ++v) {
        layout.pack(std::span<const std::int64_t>(std::vector<std::int64_t>{v}), words.data());
        const auto [index, inserted] = store.intern(words.data());
        EXPECT_TRUE(inserted);
        EXPECT_EQ(index, static_cast<std::size_t>(v));
    }
    EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
    for (std::int64_t v = 0; v < n; ++v) {
        layout.pack(std::span<const std::int64_t>(std::vector<std::int64_t>{v}), words.data());
        const auto [index, inserted] = store.intern(words.data());
        EXPECT_FALSE(inserted);
        EXPECT_EQ(index, static_cast<std::size_t>(v));
        EXPECT_EQ(store.find(words.data()), static_cast<std::size_t>(v));
        EXPECT_EQ(store.value(index, 0), v);
    }
    layout.pack(std::span<const std::int64_t>(std::vector<std::int64_t>{n + 1}), words.data());
    EXPECT_EQ(store.find(words.data()), SIZE_MAX);
}

// ---------------------------------------------------------------------------
// explore_bfs against an independent reference BFS: std::map over
// valuations, triplets, then CsrBuilder — no packed store, no row assembly.
// ---------------------------------------------------------------------------

namespace {

namespace la = arcade::linalg;

/// A 5-dimensional grid [0, 7]^5 (32768 states).  Every state emits: three
/// duplicate steps along dimension 0 valued 0.1, 0.2, 0.3, whose sum
/// depends on association; unit-ish steps along the other dimensions; a
/// self-loop; a zero-rate step back (dropped); a jump to the origin; and a
/// late duplicate of the dimension-1 step, apart from its first emission.
constexpr std::int64_t kGridSide = 8;
constexpr std::size_t kGridDims = 5;

template <typename Emit>
void grid_successors(std::span<const std::int64_t> v, std::vector<std::int64_t>& t,
                     Emit&& emit) {
    t.assign(v.begin(), v.end());
    const auto send = [&](double rate) { emit(std::span<const std::int64_t>(t), rate); };
    if (v[0] + 1 < kGridSide) {
        ++t[0];
        for (const double rate : {0.1, 0.2, 0.3}) send(rate);
        --t[0];
    }
    for (std::size_t d = 1; d < kGridDims; ++d) {
        if (v[d] + 1 >= kGridSide) continue;
        ++t[d];
        send(1.0 + 0.25 * static_cast<double>(d));
        --t[d];
    }
    send(0.7);  // self-loop
    if (v[0] > 0) {
        --t[0];
        send(0.0);  // zero rate: never becomes a transition
        ++t[0];
    }
    std::vector<std::int64_t> origin(kGridDims, 0);
    emit(std::span<const std::int64_t>(origin), 0.05);
    if (v[1] + 1 < kGridSide) {
        ++t[1];
        send(1e-3);
        --t[1];
    }
}

/// The grid's successor callable for explore_bfs; counts its calls into
/// `calls` when given.
auto grid_walk(std::size_t* calls = nullptr) {
    return [calls, t = std::vector<std::int64_t>()](std::span<const std::int64_t> v,
                                                    auto&& emit) mutable {
        if (calls != nullptr) ++*calls;
        grid_successors(v, t, emit);
    };
}

const engine::StateLayout& grid_layout() {
    static const engine::StateLayout layout(
        std::vector<engine::FieldSpec>(kGridDims, {0, kGridSide - 1}));
    return layout;
}

struct ReferenceChain {
    std::vector<std::vector<std::int64_t>> states;  // BFS discovery order
    la::CsrMatrix rates;
};

ReferenceChain reference_bfs(const std::vector<std::int64_t>& initial) {
    std::map<std::vector<std::int64_t>, std::size_t> index{{initial, 0}};
    ReferenceChain out;
    out.states.push_back(initial);
    struct Triplet {
        std::size_t source;
        std::size_t target;
        double rate;
    };
    std::vector<Triplet> triplets;
    std::vector<std::int64_t> scratch;
    for (std::size_t si = 0; si < out.states.size(); ++si) {
        const std::vector<std::int64_t> v = out.states[si];
        grid_successors(v, scratch, [&](std::span<const std::int64_t> target, double rate) {
            if (rate == 0.0) return;
            const auto [it, inserted] = index.emplace(
                std::vector<std::int64_t>(target.begin(), target.end()), out.states.size());
            if (inserted) out.states.push_back(it->first);
            triplets.push_back({si, it->second, rate});
        });
    }
    la::CsrBuilder builder(out.states.size(), out.states.size());
    for (const Triplet& t : triplets) {
        if (t.source != t.target) builder.add(t.source, t.target, t.rate);
    }
    out.rates = builder.build();
    return out;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
    std::vector<std::uint64_t> bits;
    for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

}  // namespace

TEST(ExploreBfs, MatchesReferenceBfsBitwise) {
    const std::vector<std::int64_t> initial(kGridDims, 0);
    const ReferenceChain reference = reference_bfs(initial);
    ASSERT_EQ(reference.states.size(), 32768u);

    // The association-dependent triple is summed left to right from +0.0.
    const double left = ((0.0 + 0.1) + 0.2) + 0.3;
    ASSERT_NE(left, 0.1 + (0.2 + 0.3));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.rates.at(0, 1)),
              std::bit_cast<std::uint64_t>(left));

    const auto explored = engine::explore_bfs(grid_layout(), initial, grid_walk());
    ASSERT_EQ(explored.store.size(), reference.states.size());
    std::vector<std::int64_t> values(kGridDims);
    for (std::size_t s = 0; s < reference.states.size(); ++s) {
        explored.store.unpack(s, std::span<std::int64_t>(values));
        ASSERT_EQ(values, reference.states[s]) << "state " << s;
    }
    const la::CsrMatrix& rates = explored.rates;
    EXPECT_EQ(rates.rows(), reference.rates.rows());
    EXPECT_EQ(rates.cols(), reference.rates.cols());
    EXPECT_EQ(rates.row_ptr(), reference.rates.row_ptr());
    EXPECT_EQ(rates.col_idx(), reference.rates.col_idx());
    EXPECT_EQ(bits_of(rates.values()), bits_of(reference.rates.values()));
    // Exactly sized, like CsrBuilder::build(): no growth slack.
    EXPECT_EQ(rates.col_idx().capacity(), rates.nonzeros());
    EXPECT_EQ(rates.values().capacity(), rates.nonzeros());
}

TEST(ExploreBfs, NegativeRateThrows) {
    // State (4, 4, 4, 4, 4) sits on BFS level 20, deep in the exploration.
    auto walk = [t = std::vector<std::int64_t>()](std::span<const std::int64_t> v,
                                                  auto&& emit) mutable {
        grid_successors(v, t, emit);
        bool hit = true;
        for (const std::int64_t x : v) hit = hit && x == 4;
        if (hit) emit(v, -1.0);
    };
    const std::vector<std::int64_t> initial(kGridDims, 0);
    EXPECT_THROW((void)engine::explore_bfs(grid_layout(), initial, walk), arcade::ModelError);
}

TEST(ExploreBfs, StateGuardThrowsWhileInterning) {
    const std::vector<std::int64_t> initial(kGridDims, 0);
    // The guard counts interned states, not expanded ones: levels 0-4 hold
    // 1 + 5 + 15 + 35 + 70 states, so 100 is passed while level 3 is
    // expanded, and 1000 (792 states through level 7) while level 7 is.
    for (const std::size_t max_states : {std::size_t{100}, std::size_t{1000}}) {
        std::size_t calls = 0;
        try {
            (void)engine::explore_bfs(grid_layout(), initial, grid_walk(&calls),
                                      engine::EngineOptions{.max_states = max_states});
            ADD_FAILURE() << "expected ModelError at " << max_states;
        } catch (const arcade::ModelError& e) {
            EXPECT_NE(std::string(e.what()).find("more than " + std::to_string(max_states)),
                      std::string::npos)
                << e.what();
        }
        // It fires on the intern that passes it, mid-row, so fewer sources
        // than max_states were expanded.
        EXPECT_LT(calls, max_states);
    }
}

TEST(ExploreBfs, StateLimitBeyondTheIndexRangeThrowsBeforeExploring) {
    // State numbers are 32-bit column indices: a guard that could let more
    // states through is refused on entry, before any state is expanded.
    const std::vector<std::int64_t> initial(kGridDims, 0);
    std::size_t calls = 0;
    try {
        (void)engine::explore_bfs(grid_layout(), initial, grid_walk(&calls),
                                  engine::EngineOptions{.max_states = std::size_t{1} << 32});
        ADD_FAILURE() << "expected ModelError";
    } catch (const arcade::ModelError& e) {
        EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos) << e.what();
    }
    EXPECT_EQ(calls, 0u);
}

TEST(ExploreBfs, NonFiniteRatesThrowAtTheirEmission) {
    const std::vector<std::int64_t> initial(kGridDims, 0);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        std::size_t calls = 0;
        auto walk = [&calls, bad, t = std::vector<std::int64_t>()](std::span<const std::int64_t> v,
                                                              auto&& emit) mutable {
            ++calls;
            grid_successors(v, t, emit);
            if (v[0] == 2 && v[1] == 1) emit(v, bad);
        };
        try {
            (void)engine::explore_bfs(grid_layout(), initial, walk);
            ADD_FAILURE() << "expected ModelError for rate " << bad;
        } catch (const arcade::ModelError& e) {
            EXPECT_EQ(std::string(e.what()), "non-finite transition rate");
        }
        // (2, 1, 0, 0, 0) is on BFS level 3: the error stops the exploration
        // there instead of surfacing when the chain is built.
        EXPECT_LT(calls, 100u) << bad;
    }
}

// ---------------------------------------------------------------------------
// Error precedence: explore_bfs interns a source's emissions as one batch
// after the walk; its errors must be those of a loop that checks, packs and
// interns each emission as it arrives.
// ---------------------------------------------------------------------------

namespace {

/// A 10 x 10 grid walked +1 along each axis from the origin.  At source
/// `trigger` the walk then emits its extras — (target, rate) pairs, where an
/// empty target makes the walk throw.
struct Extra {
    std::vector<std::int64_t> target;
    double rate = 1.0;
};

const engine::StateLayout& square_layout() {
    static const engine::StateLayout layout({{0, 9}, {0, 9}});
    return layout;
}

auto square_walk(std::vector<std::int64_t> trigger, std::vector<Extra> extras) {
    return [trigger = std::move(trigger), extras = std::move(extras),
            t = std::vector<std::int64_t>()](std::span<const std::int64_t> v,
                                            auto&& emit) mutable {
        for (std::size_t d = 0; d < 2; ++d) {
            if (v[d] == 9) continue;
            t.assign(v.begin(), v.end());
            ++t[d];
            emit(std::span<const std::int64_t>(t), 1.0 + static_cast<double>(d));
        }
        if (!std::equal(v.begin(), v.end(), trigger.begin(), trigger.end())) return;
        for (const Extra& extra : extras) {
            if (extra.target.empty()) throw std::runtime_error("walk failed");
            emit(std::span<const std::int64_t>(extra.target), extra.rate);
        }
    };
}

/// The per-emission loop explore_bfs replaced, written against
/// std::map: each emission is checked, range-checked field by field and
/// interned before the walk goes on.  Returns the error message, empty
/// when the exploration succeeds.
template <typename Walk>
std::string per_emission_error(const std::vector<engine::FieldSpec>& fields,
                               const std::vector<std::int64_t>& initial, Walk walk,
                               std::size_t max_states) {
    std::map<std::vector<std::int64_t>, std::size_t> index;
    std::vector<std::vector<std::int64_t>> states;
    const auto intern = [&](std::span<const std::int64_t> target) {
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (target[i] < fields[i].low || target[i] > fields[i].high) {
                throw arcade::ModelError("pack: value " + std::to_string(target[i]) +
                                         " outside field range [" +
                                         std::to_string(fields[i].low) + "," +
                                         std::to_string(fields[i].high) + "]");
            }
        }
        std::vector<std::int64_t> key(target.begin(), target.end());
        if (index.emplace(key, states.size()).second) {
            states.push_back(key);
            if (states.size() > max_states) {
                throw arcade::ModelError("state-space explosion: more than " +
                                         std::to_string(max_states) + " states");
            }
        }
    };
    try {
        intern(initial);
        for (std::size_t s = 0; s < states.size(); ++s) {
            const std::vector<std::int64_t> source = states[s];
            walk(std::span<const std::int64_t>(source),
                 [&](std::span<const std::int64_t> target, double rate) {
                     if (!std::isfinite(rate)) {
                         throw arcade::ModelError("non-finite transition rate");
                     }
                     if (rate < 0.0) throw arcade::ModelError("negative transition rate");
                     if (rate != 0.0) intern(target);
                 });
        }
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

template <typename Walk>
std::string explore_error(const std::vector<std::int64_t>& initial, Walk walk,
                          std::size_t max_states) {
    try {
        (void)engine::explore_bfs(square_layout(), initial, walk,
                                  engine::EngineOptions{.max_states = max_states});
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(ExploreBfs, BatchedInterningKeepsThePerEmissionErrorPrecedence) {
    const std::vector<engine::FieldSpec> fields{{0, 9}, {0, 9}};
    const std::vector<std::int64_t> origin{0, 0};
    // (9, 9) is the last state BFS discovers, so emitting it early is new;
    // each failure follows it within the same source.
    const Extra corner{{9, 9}, 0.5};
    const Extra self_loop{{1, 0}, 0.25};
    const std::vector<std::pair<std::string, std::vector<Extra>>> cases{
        {"new target, then out of range", {corner, self_loop, {{3, 10}, 1.0}}},
        {"new target, then negative rate", {corner, {{2, 2}, -1.0}}},
        {"new target, then NaN", {corner, {{2, 2}, std::numeric_limits<double>::quiet_NaN()}}},
        {"new target, then the walk throws", {corner, self_loop, {{}, 1.0}}},
        {"out of range first", {{{-1, 0}, 1.0}, corner}},
        {"walk throws first", {{{}, 1.0}, corner}},
        {"no failure", {corner, self_loop, {{2, 0}, 0.0}}},
    };
    std::size_t explosions = 0;
    std::size_t failures = 0;
    for (const auto& [name, extras] : cases) {
        for (const auto& trigger : {std::vector<std::int64_t>{0, 0}, std::vector<std::int64_t>{1, 0},
                                    std::vector<std::int64_t>{4, 5}}) {
            // Every guard from below the first batch to past the chain.
            for (std::size_t max_states = 0; max_states <= 101; ++max_states) {
                const std::string expected =
                    per_emission_error(fields, origin, square_walk(trigger, extras), max_states);
                EXPECT_EQ(explore_error(origin, square_walk(trigger, extras), max_states),
                          expected)
                    << name << ", trigger (" << trigger[0] << "," << trigger[1]
                    << "), max_states " << max_states;
                if (expected.find("explosion") != std::string::npos) ++explosions;
                if (!expected.empty() && expected.find("explosion") == std::string::npos) {
                    ++failures;
                }
            }
        }
    }
    EXPECT_GT(explosions, 500u);
    EXPECT_GT(failures, 500u);
}

TEST(ExploreBfs, SelfLoopsAndDuplicatesInOneBatchSumInEmissionOrder) {
    // At (1, 0): three duplicates of a known target around two self-loops,
    // and a new target emitted twice — summed left to right from +0.0.
    const std::vector<std::int64_t> origin{0, 0};
    const std::vector<Extra> extras{{{2, 0}, 0.1}, {{1, 0}, 5.0},  {{2, 0}, 0.2},
                                    {{7, 7}, 0.3}, {{1, 0}, 0.125}, {{2, 0}, 0.3},
                                    {{7, 7}, 0.6}};
    const auto explored = engine::explore_bfs(square_layout(), origin,
                                              square_walk({1, 0}, extras));
    ASSERT_EQ(explored.store.size(), 100u);
    std::vector<std::int64_t> values(2);
    std::size_t seven = SIZE_MAX;
    for (std::size_t s = 0; s < explored.store.size(); ++s) {
        explored.store.unpack(s, std::span<std::int64_t>(values));
        if (values == std::vector<std::int64_t>{7, 7}) seven = s;
    }
    // (1, 0) is state 1; its successors (2, 0), (1, 1) are 3 and 4 (BFS
    // from (0, 0) numbers (1, 0), (0, 1) first), and (7, 7) comes next.
    ASSERT_EQ(seven, 5u);
    const auto cols = explored.rates.row_columns(1);
    const auto vals = explored.rates.row_values(1);
    ASSERT_EQ(std::vector<la::Index>(cols.begin(), cols.end()),
              (std::vector<la::Index>{3, 4, 5}));
    const double to_two = ((((0.0 + 1.0) + 0.1) + 0.2) + 0.3);
    const double to_seven = (0.0 + 0.3) + 0.6;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vals[0]), std::bit_cast<std::uint64_t>(to_two));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vals[1]), std::bit_cast<std::uint64_t>(2.0));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vals[2]), std::bit_cast<std::uint64_t>(to_seven));
}

TEST(ExploreBfs, DecodesEachSourceIntoTheRequestedElementType) {
    // The same walk on int16_t and int64_t sources explores the same chain.
    auto walk16 = [t = std::vector<std::int16_t>()](std::span<const std::int16_t> v,
                                                    auto&& emit) mutable {
        for (std::size_t d = 0; d < 2; ++d) {
            if (v[d] == 9) continue;
            t.assign(v.begin(), v.end());
            ++t[d];
            emit(std::span<const std::int16_t>(t), 1.0 + static_cast<double>(d));
        }
    };
    const std::vector<std::int16_t> origin16{0, 0};
    const auto narrow = engine::explore_bfs<std::int16_t>(square_layout(), origin16, walk16);
    const auto wide = engine::explore_bfs(square_layout(), std::vector<std::int64_t>{0, 0},
                                          square_walk({-1, -1}, {}));
    ASSERT_EQ(narrow.store.size(), wide.store.size());
    for (std::size_t s = 0; s < wide.store.size(); ++s) {
        EXPECT_EQ(narrow.store.value(s, 0), wide.store.value(s, 0));
        EXPECT_EQ(narrow.store.value(s, 1), wide.store.value(s, 1));
    }
    EXPECT_EQ(narrow.rates.row_ptr(), wide.rates.row_ptr());
    EXPECT_EQ(narrow.rates.col_idx(), wide.rates.col_idx());
    EXPECT_EQ(bits_of(narrow.rates.values()), bits_of(wide.rates.values()));
}

TEST(StateStore, MatchesAMapReferenceThroughEveryGrowth) {
    // 1-, 2- and 3-word layouts; keys drawn with repeats from a space about
    // twice the 2^18 states interned, so the 1024-slot table grows at least
    // eight times.
    const std::vector<std::vector<engine::FieldSpec>> layouts{
        {{0, (std::int64_t{1} << 40) - 1}, {-3, 3}},
        {{0, (std::int64_t{1} << 40) - 1}, {0, (std::int64_t{1} << 40) - 1}},
        {{0, (std::int64_t{1} << 62)}, {-5, 5}, {0, (std::int64_t{1} << 40) - 1}, {0, 0},
         {0, (std::int64_t{1} << 62)}}};
    const std::size_t wanted = std::size_t{1} << 18;
    std::mt19937_64 rng(111809);
    for (std::size_t l = 0; l < layouts.size(); ++l) {
        const engine::StateLayout layout(layouts[l]);
        ASSERT_EQ(layout.words_per_state(), l + 1);
        engine::StateStore store(layout);
        std::map<std::vector<std::uint64_t>, std::size_t> reference;
        std::vector<std::vector<std::uint64_t>> order;
        std::vector<std::int64_t> values(layouts[l].size());
        std::vector<std::uint64_t> words(layout.words_per_state());
        // Each field draws from a pool of values: two for every field but
        // the first, whose pool makes the key space 2^19, so draws repeat.
        std::size_t pooled = 0;
        for (std::size_t i = 1; i < layouts[l].size(); ++i) {
            if (layouts[l][i].high > layouts[l][i].low) ++pooled;
        }
        const auto draw = [&] {
            for (std::size_t i = 0; i < values.size(); ++i) {
                const auto& f = layouts[l][i];
                const std::uint64_t pool = i == 0 ? std::uint64_t{1} << (19 - pooled) : 2;
                const std::uint64_t range = static_cast<std::uint64_t>(f.high - f.low);
                values[i] = f.low + static_cast<std::int64_t>(
                                        (rng() % pool) * (range / pool) % (range + 1));
            }
            layout.pack(std::span<const std::int64_t>(values), words.data());
        };
        std::size_t absent_checks = 0;
        while (store.size() < wanted) {
            draw();
            const auto [it, fresh] = reference.emplace(words, reference.size());
            if (fresh && rng() % 8 == 0) {
                ASSERT_EQ(store.find(words.data()), SIZE_MAX);
                ++absent_checks;
            }
            if (fresh) order.push_back(words);
            const auto [index, inserted] = store.intern(words.data());
            ASSERT_EQ(inserted, fresh);
            ASSERT_EQ(index, it->second);
        }
        EXPECT_GT(absent_checks, 1000u);
        EXPECT_LT(reference.size(), 2 * wanted);
        ASSERT_EQ(store.size(), order.size());
        for (std::size_t s = 0; s < order.size(); ++s) {
            ASSERT_TRUE(std::equal(order[s].begin(), order[s].end(), store.words(s))) << s;
            ASSERT_EQ(store.find(order[s].data()), s);
        }
        for (int k = 0; k < 10000; ++k) {
            draw();
            const auto it = reference.find(words);
            ASSERT_EQ(store.find(words.data()), it == reference.end() ? SIZE_MAX : it->second);
        }
    }
}

TEST(ExploredModel, StatesAdapterMaterialisesValuations) {
    const auto system = core::to_reactive_modules(wt::line2(wt::strategy("DED")));
    const auto explored = modules::explore(system);
    const auto states = explored.states();
    ASSERT_EQ(states.size(), explored.state_count());
    for (std::size_t s = 0; s < states.size(); ++s) {
        EXPECT_EQ(states[s], explored.valuation(s));
    }
}

TEST(AnalysisSession, CompileCacheHitsArePointerIdentical) {
    engine::AnalysisSession session;
    const auto first = session.compile(wt::line2(wt::strategy("FRF-1")));
    const auto second = session.compile(wt::line2(wt::strategy("FRF-1")));
    EXPECT_EQ(first.get(), second.get());

    // A different strategy, encoding or max_states is a different entry.
    const auto other = session.compile(wt::line2(wt::strategy("FFF-1")));
    EXPECT_NE(first.get(), other.get());
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    const auto third = session.compile(wt::line2(wt::strategy("FRF-1")), lumped);
    EXPECT_NE(first.get(), third.get());

    const auto stats = session.stats();
    EXPECT_EQ(stats.compile_hits, 1u);
    EXPECT_EQ(stats.compile_misses, 3u);
}

TEST(AnalysisSession, SteadyStateSolvedOncePerModel) {
    engine::AnalysisSession session;
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    const auto model = session.compile(wt::line2(wt::strategy("FRF-1")), lumped);

    const double a1 = session.availability(model);
    const double cost = session.steady_state_cost(model);
    const double a2 = session.availability(model);
    EXPECT_EQ(a1, a2);
    EXPECT_GT(cost, 0.0);
    EXPECT_NEAR(a1, core::availability(*model), 1e-12);

    const auto stats = session.stats();
    EXPECT_EQ(stats.steady_state_misses, 1u);
    EXPECT_EQ(stats.steady_state_hits, 2u);

    session.clear();
    EXPECT_EQ(session.stats().steady_state_misses, 0u);
}
