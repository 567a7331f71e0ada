// Build provenance, kept for perfbench (the only includer; its
// CMakeLists.txt adds this directory to its include path).  Timings from
// non-optimised builds are noise at best and misleading at worst:
// perfbench refuses to measure unless release_build() holds, and stamps
// build_type() into every result it writes.  The ARCADE_BUILD_TYPE
// definition comes from perfbench's own CMakeLists.txt.
#ifndef ARCADE_BENCH_COMMON_HPP
#define ARCADE_BENCH_COMMON_HPP

#include <string>

namespace bench {

/// CMAKE_BUILD_TYPE baked in at compile time (empty when unset).
inline const char* build_type() {
#ifdef ARCADE_BUILD_TYPE
    return ARCADE_BUILD_TYPE[0] == '\0' ? "unspecified" : ARCADE_BUILD_TYPE;
#else
    return "unknown";
#endif
}

inline bool release_build() {
    const std::string t = build_type();
    return t == "Release" || t == "RelWithDebInfo" || t == "MinSizeRel";
}

}  // namespace bench

#endif  // ARCADE_BENCH_COMMON_HPP
