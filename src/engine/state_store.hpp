// Packed explicit-state storage — the substrate shared by the reactive-module
// explorer and the Arcade compiler.
//
// Variable ranges are known before exploration starts, so every state packs
// into a few contiguous uint64 words: each field gets bit_width(high - low)
// bits (single-value ranges cost zero bits) and fields never straddle word
// boundaries.  States live back-to-back in one arena vector and are interned
// through an open-addressing (linear-probing) hash table, replacing the
// seed's std::unordered_map over heap-allocated std::vector valuations —
// one allocation-free probe per successor instead of a vector hash, a
// vector compare and a node allocation.
#ifndef ARCADE_ENGINE_STATE_STORE_HPP
#define ARCADE_ENGINE_STATE_STORE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
    /// ModelError otherwise) into `out[0 .. words_per_state())`.  Inline and
    /// generic over the integral source type: this is the per-successor hot
    /// path of exploration.
    template <typename Int>
    void pack(std::span<const Int> values, std::uint64_t* out) const {
        for (std::size_t w = 0; w < words_; ++w) out[w] = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const Slot& s = slots_[i];
            // single unsigned compare catches both v < low and v > high
            const std::uint64_t raw = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(values[i])) - static_cast<std::uint64_t>(s.low);
            if (raw > s.range) throw_out_of_range(i, static_cast<std::int64_t>(values[i]));
            out[s.word] |= raw << s.shift;
        }
    }

    /// Inverse of pack.
    template <typename Int>
    void unpack(const std::uint64_t* words, std::span<Int> out) const {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const Slot& s = slots_[i];
            const std::uint64_t raw = (words[s.word] >> s.shift) & s.mask;
            out[i] = static_cast<Int>(
                static_cast<std::int64_t>(raw + static_cast<std::uint64_t>(s.low)));
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
    std::vector<FieldSpec> specs_;
    std::size_t words_ = 1;

    [[noreturn]] void throw_out_of_range(std::size_t field, std::int64_t value) const;
};

/// Arena-backed interning table: packed states are appended to one
/// contiguous word vector and indexed by an open-addressing hash table.
/// Indices are dense and assigned in interning order (BFS order when driven
/// by the engine explorer).
class StateStore {
public:
    StateStore() = default;
    explicit StateStore(StateLayout layout);

    [[nodiscard]] const StateLayout& layout() const noexcept { return layout_; }
    [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }

    /// Interns a packed state; returns its index and whether it was new.
    std::pair<std::size_t, bool> intern(const std::uint64_t* words);
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

    void reserve(std::size_t states);

private:
    StateLayout layout_;
    std::size_t wps_ = 1;  // words per state
    std::vector<std::uint64_t> arena_;  // size() * wps_ words
    std::vector<std::size_t> hashes_;   // cached hash per state
    std::vector<std::size_t> slots_;    // open addressing; index + 1, 0 = empty
    std::size_t slot_mask_ = 0;

    [[nodiscard]] static std::size_t hash_words(const std::uint64_t* words, std::size_t n);
    [[nodiscard]] bool equals(std::size_t index, const std::uint64_t* words) const;
    void grow();
};

}  // namespace arcade::engine

#endif  // ARCADE_ENGINE_STATE_STORE_HPP
