#include "engine/state_store.hpp"

#include <bit>
#include <string>

#include "support/errors.hpp"

namespace arcade::engine {

StateLayout::StateLayout(const std::vector<FieldSpec>& fields) : specs_(fields) {
    slots_.reserve(fields.size());
    std::uint32_t word = 0;
    std::uint32_t used = 0;  // bits consumed in the current word
    for (const FieldSpec& f : fields) {
        if (f.high < f.low) {
            throw InvalidArgument("state field has high < low (" + std::to_string(f.high) +
                                  " < " + std::to_string(f.low) + ")");
        }
        const std::uint64_t range =
            static_cast<std::uint64_t>(f.high) - static_cast<std::uint64_t>(f.low);
        const auto bits = static_cast<std::uint32_t>(std::bit_width(range));
        if (bits > 64 - used) {  // fields never straddle word boundaries
            ++word;
            used = 0;
        }
        Slot slot;
        slot.low = f.low;
        slot.range = range;
        slot.mask = bits == 64 ? ~0ull : ((1ull << bits) - 1ull);
        // Zero-width fields store nothing; pin them to shift 0 so pack/unpack
        // never shift by 64 (UB) when the preceding fields fill the word.
        // They keep the current word, so slot words never decrease and pack
        // can store each word once.
        slot.word = word;
        slot.shift = bits == 0 ? 0 : used;
        slots_.push_back(slot);
        used += bits;
    }
    words_ = static_cast<std::size_t>(word) + 1;
}

void StateLayout::throw_out_of_range(std::size_t field, std::int64_t value) const {
    throw ModelError("pack: value " + std::to_string(value) + " outside field range [" +
                     std::to_string(specs_[field].low) + "," +
                     std::to_string(specs_[field].high) + "]");
}

StateStore::StateStore(StateLayout layout)
    : layout_(std::move(layout)), wps_(layout_.words_per_state()) {
    slots_.assign(1024, 0);
    slot_mask_ = slots_.size() - 1;
}

std::size_t StateStore::hash_words(const std::uint64_t* words, std::size_t n) {
    // splitmix64-style mixing over the packed words.
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t x = words[i] + 0xbf58476d1ce4e5b9ull * (i + 1);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        h = (h ^ x) * 0xff51afd7ed558ccdull;
    }
    return static_cast<std::size_t>(h);
}

bool StateStore::equals(std::size_t index, const std::uint64_t* words) const {
    const std::uint64_t* mine = arena_.data() + index * wps_;
    for (std::size_t w = 0; w < wps_; ++w) {
        if (mine[w] != words[w]) return false;
    }
    return true;
}

void StateStore::grow() {
    std::vector<std::size_t> fresh(slots_.size() * 2, 0);
    const std::size_t mask = fresh.size() - 1;
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
        std::size_t pos = hashes_[i] & mask;
        while (fresh[pos] != 0) pos = (pos + 1) & mask;
        fresh[pos] = i + 1;
    }
    slots_ = std::move(fresh);
    slot_mask_ = mask;
}

std::pair<std::size_t, bool> StateStore::intern(const std::uint64_t* words) {
    ARCADE_ASSERT(!slots_.empty(), "intern on a default-constructed StateStore");
    const std::size_t h = hash_words(words, wps_);
    std::size_t pos = h & slot_mask_;
    while (slots_[pos] != 0) {
        const std::size_t index = slots_[pos] - 1;
        if (hashes_[index] == h && equals(index, words)) return {index, false};
        pos = (pos + 1) & slot_mask_;
    }
    const std::size_t index = hashes_.size();
    arena_.insert(arena_.end(), words, words + wps_);
    hashes_.push_back(h);
    slots_[pos] = index + 1;
    // keep the load factor below ~0.7
    if ((hashes_.size() + 1) * 10 > slots_.size() * 7) grow();
    return {index, true};
}

std::size_t StateStore::find(const std::uint64_t* words) const {
    if (slots_.empty()) return SIZE_MAX;
    const std::size_t h = hash_words(words, wps_);
    std::size_t pos = h & slot_mask_;
    while (slots_[pos] != 0) {
        const std::size_t index = slots_[pos] - 1;
        if (hashes_[index] == h && equals(index, words)) return index;
        pos = (pos + 1) & slot_mask_;
    }
    return SIZE_MAX;
}

const std::uint64_t* StateStore::words(std::size_t index) const {
    ARCADE_ASSERT(index < size(), "state index out of range");
    return arena_.data() + index * wps_;
}

std::int64_t StateStore::value(std::size_t index, std::size_t field) const {
    return layout_.extract(words(index), field);
}

void StateStore::reserve(std::size_t states) {
    arena_.reserve(states * wps_);
    hashes_.reserve(states);
}

}  // namespace arcade::engine
