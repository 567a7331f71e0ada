// Shared helpers for the experiment harnesses (one binary per paper
// table/figure; README.md's artefact table maps each to its sweep spec).
//
// Every harness funnels its compilations through the process-wide
// engine::AnalysisSession, so a figure looping over the five strategies
// compiles each (line, strategy, encoding) once and the per-harness
// summary line reports the cache effectiveness.
#ifndef ARCADE_BENCH_COMMON_HPP
#define ARCADE_BENCH_COMMON_HPP

#include <chrono>
#include <ostream>
#include <string>

#include "engine/session.hpp"

namespace bench {

inline arcade::engine::AnalysisSession& session() {
    return arcade::engine::AnalysisSession::global();
}

/// One-line cache summary for the end of a harness run.
inline void print_session_stats(std::ostream& os) {
    const auto stats = session().stats();
    os << "# session: " << stats.compile_misses << " compiles, " << stats.compile_hits
       << " cache hits; " << stats.steady_state_misses << " steady-state solves, "
       << stats.steady_state_hits << " reuses\n";
}

// ---------------------------------------------------------------------------
// Build provenance.  Timings from non-optimised builds are noise at best and
// misleading at worst: perfbench refuses to measure unless release_build()
// holds, and stamps build_type() into every result it writes.  The
// ARCADE_BUILD_TYPE definition comes from perfbench's own CMakeLists.txt.
// ---------------------------------------------------------------------------

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

class Stopwatch {
public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

}  // namespace bench

#endif  // ARCADE_BENCH_COMMON_HPP
