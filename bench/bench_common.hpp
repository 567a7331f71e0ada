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
#include <iostream>
#include <string>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "engine/session.hpp"
#include "support/errors.hpp"
#include "support/series.hpp"
#include "watertree/watertree.hpp"

namespace bench {

using ModelPtr = arcade::engine::AnalysisSession::CompiledPtr;

inline arcade::engine::AnalysisSession& session() {
    return arcade::engine::AnalysisSession::global();
}

inline const arcade::watertree::Strategy& strategy(const std::string& name) {
    return arcade::watertree::strategy(name);
}

/// Session-cached compile with the paper's (individual) encoding.
inline ModelPtr compile_individual(const arcade::core::ArcadeModel& model) {
    return session().compile(model);
}

/// Session-cached compile with the lumped encoding (identical measures, far
/// fewer states; the equivalence is asserted by the test suite).
inline ModelPtr compile_lumped(const arcade::core::ArcadeModel& model) {
    arcade::core::CompileOptions options;
    options.encoding = arcade::core::Encoding::Lumped;
    return session().compile(model, options);
}

/// Transient options borrowing uniformisation scratch from the session pool.
inline arcade::ctmc::TransientOptions transient() {
    return arcade::core::session_transient(session());
}

/// One-line cache summary for the end of a harness run.
inline void print_session_stats(std::ostream& os) {
    const auto stats = session().stats();
    os << "# session: " << stats.compile_misses << " compiles, " << stats.compile_hits
       << " cache hits; " << stats.steady_state_misses << " steady-state solves, "
       << stats.steady_state_hits << " reuses\n";
}

// ---------------------------------------------------------------------------
// Benchmark provenance.  Perf numbers from non-optimised builds are noise
// at best and misleading at worst, so every harness (a) warns loudly when
// the binary was not built Release, and (b) stamps the build type into each
// appended row — the trajectory file is append-only across runs, so a row
// must carry its own provenance.
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

/// Prints a hard-to-miss banner when the binary is not an optimised build.
inline void warn_if_not_release() {
    if (release_build()) return;
    std::cerr << "\n"
              << "*** WARNING: benchmark binary built as '" << build_type() << "'.\n"
              << "*** Timings are NOT representative; configure with\n"
              << "***   cmake -DCMAKE_BUILD_TYPE=Release\n"
              << "*** before trusting (or committing) these numbers.\n\n";
}

/// Stamps provenance into one google-benchmark row (templated so this header
/// does not depend on benchmark.h): release_build=1 marks a trustworthy row.
template <typename State>
void stamp_build_type(State& state) {
    state.counters["release_build"] = release_build() ? 1.0 : 0.0;
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
