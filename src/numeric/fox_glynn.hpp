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
/// A q that is not finite or not below 2^53 throws InvalidArgument naming q.
[[nodiscard]] PoissonWeights fox_glynn(double q, double epsilon);

/// fox_glynn through a process-wide cache keyed by the exact bit patterns
/// of (q, epsilon).  A series pass asks for one window per grid
/// point, and every sweep cell over the same chain and time grid asks for
/// the same (lambda·t, epsilon) pairs — the cache turns those
/// recomputations into a shared lookup.  Cached weights are the same values fox_glynn would
/// return (same computation, run once), so byte-identity of every consumer
/// is preserved.  Thread-safe; callers keep the result alive via the
/// shared_ptr even if the entry leaves the cache.  The cache holds at most
/// 2048 windows: a lookup that misses when it is full empties it first.
[[nodiscard]] std::shared_ptr<const PoissonWeights> fox_glynn_cached(double q,
                                                                     double epsilon);

/// fox_glynn_cached for every rate of `rates`, taking the cache's lock once
/// for all the lookups instead of once per rate: a series pass on four
/// workers otherwise spends more time queueing for the lock than computing
/// windows.
///
/// Each window is computed once, by one caller, even when several callers
/// or several repeats within `rates` ask for it together.  A lookup that
/// misses inserts an unclaimed entry; outside the lock the caller then
/// claims and computes, in batch order, every entry of its batch that no
/// other caller has claimed, and only then waits for the entries that
/// others are still computing.  A caller therefore waits only once it has
/// no window left to compute.
///
/// `misses` counts computations and `hits` the other requests.  While the
/// cache has room, concurrent callers together compute each distinct window
/// once, and a batch on one thread counts as one call per rate in order.
/// A computation that throws (ConvergenceError, InvalidArgument) is never
/// cached: the error reaches the caller that computed it and every caller
/// waiting on it, and a later request computes the window again.  A caller whose own computation throws counts no hits;
/// the windows it computed before the error stay cached.
[[nodiscard]] std::vector<std::shared_ptr<const PoissonWeights>> fox_glynn_cached(
    std::span<const double> rates, double epsilon);

/// Hit/miss counters of the fox_glynn_cached cache (process-wide): `misses`
/// counts window computations, `hits` the requests that computed nothing.
struct FoxGlynnCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
};

[[nodiscard]] FoxGlynnCacheStats fox_glynn_cache_stats();

/// Empties the cache and zeroes its counters (tests).
void fox_glynn_cache_clear();

}  // namespace arcade::numeric

#endif  // ARCADE_NUMERIC_FOX_GLYNN_HPP
