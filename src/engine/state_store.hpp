// Packed explicit-state storage — the substrate shared by the reactive-module
// explorer and the Arcade compiler.
//
// Variable ranges are known before exploration starts, so every state packs
// into a few contiguous uint64 words: each field gets bit_width(high - low)
// bits (single-value ranges cost zero bits) and fields never straddle word
// boundaries.  States live back-to-back in one arena vector and are interned
// through an open-addressing (linear-probing) hash table of tagged slots:
// each 64-bit slot holds the upper 32 bits of its state's hash next to the
// state's index + 1, so a probe compares tags and reads the arena only on a
// tag match, and the table keeps no per-state hash array.  A caller that
// interns many states at once hashes them first (hash()), prefetches their
// home slots (prefetch()) and then interns each with its precomputed hash.
#ifndef ARCADE_ENGINE_STATE_STORE_HPP
#define ARCADE_ENGINE_STATE_STORE_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "support/errors.hpp"

namespace arcade::engine {

/// Closed integer range of one state variable.
struct FieldSpec {
    std::int64_t low = 0;
    std::int64_t high = 0;
};

/// Bit-level layout of a state: field i occupies `bits_i = bit_width(high -
/// low)` bits of some word.  Packing subtracts `low` first, so negative
/// lower bounds cost no sign bit.
class StateLayout {
public:
    StateLayout() = default;
    explicit StateLayout(const std::vector<FieldSpec>& fields);

    [[nodiscard]] std::size_t field_count() const noexcept { return slots_.size(); }
    /// Words per packed state; at least 1 so every state has a non-empty key.
    [[nodiscard]] std::size_t words_per_state() const noexcept { return words_; }
    [[nodiscard]] const FieldSpec& field(std::size_t i) const { return specs_[i]; }

    /// Packs `values` (one per field, each within its range — throws
    /// ModelError naming the first field out of range otherwise) into
    /// `out[0 .. words_per_state())`.  Inline and generic over the integral
    /// source type: this is the per-successor hot path of exploration.
    ///
    /// Slot words never decrease, so the fields of each word are a
    /// contiguous run: the loop accumulates a word in a register and stores
    /// it once (OR-ing into `out` field by field would reload and store it
    /// per field, since `out` may alias other state).  No field takes a
    /// branch: range violations are OR-ed into one flag, checked once per
    /// state.
    template <typename Int>
    void pack(std::span<const Int> values, std::uint64_t* out) const {
        bool outside = false;
        std::size_t i = 0;
        for (std::size_t w = 0; w < words_; ++w) {
            std::uint64_t acc = 0;
            for (const std::size_t end = word_end_[w]; i < end; ++i) {
                const Slot& s = slots_[i];
                // single unsigned compare catches both v < low and v > high
                const std::uint64_t raw =
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(values[i])) -
                    static_cast<std::uint64_t>(s.low);
                outside |= raw > s.range;
                acc |= raw << s.shift;
            }
            out[w] = acc;
        }
        if (outside) [[unlikely]] throw_out_of_range(values);
    }

    /// Inverse of pack, word by word like it.
    template <typename Int>
    void unpack(const std::uint64_t* words, std::span<Int> out) const {
        std::size_t i = 0;
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t word = words[w];
            for (const std::size_t end = word_end_[w]; i < end; ++i) {
                const Slot& s = slots_[i];
                const std::uint64_t raw = (word >> s.shift) & s.mask;
                out[i] = static_cast<Int>(
                    static_cast<std::int64_t>(raw + static_cast<std::uint64_t>(s.low)));
            }
        }
    }

    /// Value of a single field without unpacking the rest.
    [[nodiscard]] std::int64_t extract(const std::uint64_t* words, std::size_t field) const {
        const Slot& s = slots_[field];
        const std::uint64_t raw = (words[s.word] >> s.shift) & s.mask;
        return static_cast<std::int64_t>(raw + static_cast<std::uint64_t>(s.low));
    }

private:
    struct Slot {
        std::int64_t low;
        std::uint64_t range;  // high - low (max raw value)
        std::uint64_t mask;   // (1 << bits) - 1; 0 for zero-width fields
        std::uint32_t word;
        std::uint32_t shift;
    };
    std::vector<Slot> slots_;
    std::vector<std::size_t> word_end_{0};  // one past the last field of each word
    std::vector<FieldSpec> specs_;
    std::size_t words_ = 1;

    /// Finds the first field of `values` outside its range and throws.
    template <typename Int>
    [[noreturn]] void throw_out_of_range(std::span<const Int> values) const {
        std::size_t i = 0;
        while (static_cast<std::uint64_t>(static_cast<std::int64_t>(values[i])) -
                   static_cast<std::uint64_t>(slots_[i].low) <=
               slots_[i].range) {
            ++i;
        }
        throw_out_of_range(i, static_cast<std::int64_t>(values[i]));
    }
    [[noreturn]] void throw_out_of_range(std::size_t field, std::int64_t value) const;
};

/// Arena-backed interning table: packed states are appended to one
/// contiguous word vector and indexed by an open-addressing table of tagged
/// slots.  Indices are dense and assigned in interning order (BFS order when
/// driven by the engine explorer).  At most 2^32 - 1 states: a slot holds
/// index + 1 in 32 bits.
class StateStore {
public:
    StateStore() = default;
    explicit StateStore(StateLayout layout);

    [[nodiscard]] const StateLayout& layout() const noexcept { return layout_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// The hash intern() and find() key a packed state by.
    [[nodiscard]] std::uint64_t hash(const std::uint64_t* words) const noexcept {
        // splitmix64-style mixing over the packed words.
        std::uint64_t h = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = 0; i < wps_; ++i) {
            std::uint64_t x = words[i] + 0xbf58476d1ce4e5b9ull * (i + 1);
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ull;
            x ^= x >> 27;
            x *= 0x94d049bb133111ebull;
            x ^= x >> 31;
            h = (h ^ x) * 0xff51afd7ed558ccdull;
        }
        return h;
    }
    /// Starts loading the home slot of `hash` into the cache.
    void prefetch(std::uint64_t hash) const noexcept {
        __builtin_prefetch(slots_.data() + (hash & slot_mask_));
    }

    /// Interns a packed state; returns its index and whether it was new.
    std::pair<std::size_t, bool> intern(const std::uint64_t* words) {
        return intern(words, hash(words));
    }
    /// intern() with the state's hash() already computed.
    std::pair<std::size_t, bool> intern(const std::uint64_t* words, std::uint64_t hash) {
        ARCADE_ASSERT(!slots_.empty(), "intern on a default-constructed StateStore");
        const std::size_t pos = probe(words, hash);
        if (slots_[pos] != 0) return {(slots_[pos] & kIndexMask) - 1, false};
        ARCADE_ASSERT(size_ < kIndexMask, "state store holds 2^32 - 1 states");
        const std::size_t index = size_++;
        arena_.insert(arena_.end(), words, words + wps_);
        slots_[pos] = (hash & kTagMask) | (index + 1);
        // keep the load factor below ~0.7
        if ((size_ + 1) * 10 > slots_.size() * 7) grow();
        return {index, true};
    }
    /// Index of a packed state, or SIZE_MAX when absent.
    [[nodiscard]] std::size_t find(const std::uint64_t* words) const;

    /// The packed words of state `index` (valid until the next intern).
    [[nodiscard]] const std::uint64_t* words(std::size_t index) const;
    /// Decodes state `index` into `out` (one value per field).
    template <typename Int>
    void unpack(std::size_t index, std::span<Int> out) const {
        layout_.unpack(words(index), out);
    }
    /// Single-field decode of state `index`.
    [[nodiscard]] std::int64_t value(std::size_t index, std::size_t field) const;

private:
    static constexpr std::uint64_t kIndexMask = std::numeric_limits<std::uint32_t>::max();
    static constexpr std::uint64_t kTagMask = ~kIndexMask;

    StateLayout layout_;
    std::size_t wps_ = 1;  // words per state
    std::size_t size_ = 0;
    std::vector<std::uint64_t> arena_;  // size_ * wps_ words
    std::vector<std::uint64_t> slots_;  // hash tag | (index + 1); 0 = empty
    std::size_t slot_mask_ = 0;

    /// The slot holding `words`, or the empty slot that ends its probe.
    [[nodiscard]] std::size_t probe(const std::uint64_t* words, std::uint64_t hash) const {
        const std::uint64_t tag = hash & kTagMask;
        std::size_t pos = hash & slot_mask_;
        for (std::uint64_t slot; (slot = slots_[pos]) != 0; pos = (pos + 1) & slot_mask_) {
            if ((slot & kTagMask) == tag && equals((slot & kIndexMask) - 1, words)) break;
        }
        return pos;
    }
    [[nodiscard]] bool equals(std::size_t index, const std::uint64_t* words) const {
        const std::uint64_t* mine = arena_.data() + index * wps_;
        for (std::size_t w = 0; w < wps_; ++w) {
            if (mine[w] != words[w]) return false;
        }
        return true;
    }
    void grow();
};

}  // namespace arcade::engine

#endif  // ARCADE_ENGINE_STATE_STORE_HPP
