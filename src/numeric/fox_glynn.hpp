// Fox–Glynn computation of Poisson probabilities for uniformisation.
//
// Computes weights w_k ∝ e^{-q} q^k / k! for k in [left, right] such that the
// total truncated mass is ≥ 1 - epsilon, without underflow for large q.
// Reference: B. Fox, P. Glynn, "Computing Poisson probabilities", CACM 1988.
#ifndef ARCADE_NUMERIC_FOX_GLYNN_HPP
#define ARCADE_NUMERIC_FOX_GLYNN_HPP

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace arcade::numeric {

/// Truncated, normalised Poisson weight vector.
struct PoissonWeights {
    std::size_t left = 0;               ///< first index with non-negligible mass
    std::size_t right = 0;              ///< last index included
    std::vector<double> weights;        ///< weights[k-left] = P(N=k), normalised
    double total_before_norm = 0.0;     ///< truncated mass before normalisation

    [[nodiscard]] double weight(std::size_t k) const {
        if (k < left || k > right) return 0.0;
        return weights[k - left];
    }
};

/// Computes the Fox–Glynn window and weights for rate `q` ≥ 0 and truncation
/// error `epsilon` (total missing probability mass).  For q == 0 returns the
/// degenerate distribution at k = 0.  The returned window always satisfies
/// total_before_norm ≥ 1 - epsilon; if no double-precision window can (the
/// requested epsilon is below the summation's rounding floor), throws
/// ConvergenceError instead of silently returning under-covering weights.
[[nodiscard]] PoissonWeights fox_glynn(double q, double epsilon);

/// fox_glynn through a process-wide LRU cache keyed by the exact bit
/// patterns of (q, epsilon).  A series pass asks for one window per grid
/// point, and every sweep cell over the same chain and time grid asks for
/// the same (lambda·t, epsilon) pairs — the cache turns those
/// recomputations into a shared lookup.  Cached weights are the same values fox_glynn would
/// return (same computation, run once), so byte-identity of every consumer
/// is preserved.  ConvergenceError is propagated, never cached.
/// Thread-safe; callers keep the result alive via the shared_ptr even if
/// the entry is evicted.
[[nodiscard]] std::shared_ptr<const PoissonWeights> fox_glynn_cached(double q,
                                                                     double epsilon);

/// fox_glynn_cached for every rate of `rates`, taking the cache's lock once
/// for the lookups and once for the inserts instead of once per rate: a
/// series pass on four workers otherwise spends more time queueing for the
/// lock than computing windows.  On one thread, while the cache has room,
/// the windows, hits and misses are those of one call per rate in order,
/// except that a rate repeated in `rates` and missing from the cache is
/// computed, and counted as a miss, once per repeat.  Concurrent calls that
/// miss the same window may each compute it; each computation is a miss.
[[nodiscard]] std::vector<std::shared_ptr<const PoissonWeights>> fox_glynn_cached(
    std::span<const double> rates, double epsilon);

/// Hit/miss counters of the fox_glynn_cached LRU (process-wide).
struct FoxGlynnCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
};

[[nodiscard]] FoxGlynnCacheStats fox_glynn_cache_stats();

/// Empties the LRU and zeroes its counters (tests).
void fox_glynn_cache_clear();

}  // namespace arcade::numeric

#endif  // ARCADE_NUMERIC_FOX_GLYNN_HPP
