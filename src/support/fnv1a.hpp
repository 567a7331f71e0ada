// FNV-1a word hashing: the hash behind the reduction layer's signature keys
// and the analysis session's model fingerprints.
#ifndef ARCADE_SUPPORT_FNV1A_HPP
#define ARCADE_SUPPORT_FNV1A_HPP

#include <cstdint>

namespace arcade {

/// FNV-1a offset basis.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;

/// Mixes the eight bytes of `v` into `h`, least significant first.
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

}  // namespace arcade

#endif  // ARCADE_SUPPORT_FNV1A_HPP
