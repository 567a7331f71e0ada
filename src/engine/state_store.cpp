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
        word_end_.resize(word + 1);
        word_end_.back() = slots_.size();
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

void StateStore::grow() {
    // The slots keep only part of each hash, so rehash from the arena.
    std::vector<std::uint64_t> fresh(slots_.size() * 2, 0);
    const std::size_t mask = fresh.size() - 1;
    for (std::size_t i = 0; i < size_; ++i) {
        const std::uint64_t h = hash(arena_.data() + i * wps_);
        std::size_t pos = h & mask;
        while (fresh[pos] != 0) pos = (pos + 1) & mask;
        fresh[pos] = (h & kTagMask) | (i + 1);
    }
    slots_ = std::move(fresh);
    slot_mask_ = mask;
}

std::size_t StateStore::find(const std::uint64_t* words) const {
    if (slots_.empty()) return SIZE_MAX;
    const std::uint64_t slot = slots_[probe(words, hash(words))];
    return slot == 0 ? SIZE_MAX : (slot & kIndexMask) - 1;
}

const std::uint64_t* StateStore::words(std::size_t index) const {
    ARCADE_ASSERT(index < size(), "state index out of range");
    return arena_.data() + index * wps_;
}

std::int64_t StateStore::value(std::size_t index, std::size_t field) const {
    return layout_.extract(words(index), field);
}

}  // namespace arcade::engine
