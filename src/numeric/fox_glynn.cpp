#include "numeric/fox_glynn.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <utility>

#include "linalg/vector_ops.hpp"
#include "support/errors.hpp"

namespace arcade::numeric {

PoissonWeights fox_glynn(double q, double epsilon) {
    ARCADE_ASSERT(q >= 0.0, "fox_glynn: negative rate");
    ARCADE_ASSERT(epsilon > 0.0 && epsilon < 1.0, "fox_glynn: epsilon out of (0,1)");

    PoissonWeights out;
    if (q == 0.0) {
        out.left = out.right = 0;
        out.weights = {1.0};
        out.total_before_norm = 1.0;
        return out;
    }

    // Choose the window [left, right] around the mode m = floor(q) so that the
    // two tails each hold at most epsilon/2.  For moderate q we simply widen
    // k*sqrt(q) bands; this is simpler than the original paper's bounds and
    // safe because we verify the captured mass below and widen if necessary.
    const double mode = std::floor(q);
    const double sd = std::sqrt(q);

    auto window = [&](double widths) {
        const double lo = mode - widths * sd - 4.0;
        const double hi = mode + widths * sd + 4.0;
        const std::size_t left = lo > 0.0 ? static_cast<std::size_t>(lo) : 0;
        const std::size_t right = static_cast<std::size_t>(hi);
        return std::pair<std::size_t, std::size_t>(left, right);
    };

    // Widen until the captured mass actually meets the bound.  The window
    // grows geometrically, so a handful of iterations suffice for any sane
    // epsilon.  Beyond ~1e3 sigma the true tail mass is below the smallest
    // denormal, so a still-unmet bound means epsilon sits under the
    // summation's own rounding floor: refuse rather than silently return
    // under-covering weights.  Likewise once the window spans the entire
    // effective support ([0, 2·mode + 100]) widening cannot add mass.
    double widths = 5.0;
    for (;; widths *= 1.5) {
        const auto [left, right] = window(widths);
        // Evaluate weights from the mode outwards using the recurrences
        //   p_{k+1} = p_k * q / (k+1),  p_{k-1} = p_k * k / q
        // scaled so the mode has value 1, then normalise by the true total.
        const std::size_t m = static_cast<std::size_t>(mode);
        std::vector<double> w(right - left + 1, 0.0);
        const std::size_t mi = m - left;
        w[mi] = 1.0;
        for (std::size_t k = m; k > left; --k) {
            w[k - 1 - left] = w[k - left] * static_cast<double>(k) / q;
        }
        for (std::size_t k = m; k < right; ++k) {
            w[k + 1 - left] = w[k - left] * q / static_cast<double>(k + 1);
        }
        // Neumaier-compensated sum: the window can hold millions of terms
        // and a naively accumulated total would carry more rounding error
        // than the epsilons we must certify.
        const double total = linalg::neumaier_sum(w);
        // Certify coverage via geometric tail bounds in the same scaled
        // units as the weights.  (total * pmf(mode) is useless here: the
        // log-pmf cancels ~q-sized terms, so its error alone exceeds tight
        // epsilons once q is large.)  For k > right the ratio
        // p_{k+1}/p_k = q/(k+1) <= rr < 1, so the right tail is at most
        // w_right * rr/(1-rr); symmetrically for the left tail with
        // p_{k-1}/p_k = k/q <= rl < 1.
        const double rr = q / (static_cast<double>(right) + 1.0);
        double tail = w[right - left] * rr / (1.0 - rr);
        if (left > 0) {
            const double rl = static_cast<double>(left) / q;
            tail += w[0] * rl / (1.0 - rl);
        }
        const double truncated_mass = 1.0 - tail / total;
        if (truncated_mass >= 1.0 - epsilon) {
            out.left = left;
            out.right = right;
            out.weights.resize(w.size());
            for (std::size_t i = 0; i < w.size(); ++i) out.weights[i] = w[i] / total;
            out.total_before_norm = std::min(truncated_mass, 1.0);
            return out;
        }
        const bool support_covered =
            left == 0 && static_cast<double>(right) >= 2.0 * mode + 100.0;
        if (widths > 1.0e3 || support_covered) {
            throw ConvergenceError(
                "fox_glynn: cannot capture 1 - epsilon of the Poisson mass for q=" +
                std::to_string(q) + ", epsilon=" + std::to_string(epsilon) +
                " (captured " + std::to_string(truncated_mass) + " with window [" +
                std::to_string(left) + ", " + std::to_string(right) + "])");
        }
    }
}

namespace {

// Exact-bits key: distinct doubles (including -0.0 vs +0.0 and NaN payloads)
// get distinct entries, so a cache hit can only ever return weights computed
// from the very same inputs.
using CacheKey = std::pair<std::uint64_t, std::uint64_t>;

struct FoxGlynnCache {
    std::mutex mutex;
    // Most-recent at the front; `index` maps keys to their list position so
    // a hit is one splice, an eviction one pop_back.
    std::list<std::pair<CacheKey, std::shared_ptr<const PoissonWeights>>> lru;
    std::map<CacheKey, decltype(lru)::iterator> index;
    FoxGlynnCacheStats stats;
    // Each series cell asks for one window per grid point (91–101 distinct
    // q on the paper's grids); one pass of the paper's grid asks for ~1700
    // distinct windows, about 1 MB of weights.
    static constexpr std::size_t kCapacity = 2048;
};

FoxGlynnCache& cache() {
    static FoxGlynnCache instance;
    return instance;
}

}  // namespace

std::shared_ptr<const PoissonWeights> fox_glynn_cached(double q, double epsilon) {
    const CacheKey key{std::bit_cast<std::uint64_t>(q),
                       std::bit_cast<std::uint64_t>(epsilon)};
    FoxGlynnCache& c = cache();
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        const auto it = c.index.find(key);
        if (it != c.index.end()) {
            c.lru.splice(c.lru.begin(), c.lru, it->second);
            ++c.stats.hits;
            return c.lru.front().second;
        }
    }
    // Compute outside the lock: the window search can be expensive and may
    // throw.  Two threads racing on the same key both compute the same
    // deterministic weights; the loser's insert below just finds the entry
    // already present.
    auto weights = std::make_shared<const PoissonWeights>(fox_glynn(q, epsilon));
    std::lock_guard<std::mutex> lock(c.mutex);
    ++c.stats.misses;
    const auto it = c.index.find(key);
    if (it != c.index.end()) {
        c.lru.splice(c.lru.begin(), c.lru, it->second);
        return c.lru.front().second;
    }
    c.lru.emplace_front(key, std::move(weights));
    c.index.emplace(key, c.lru.begin());
    if (c.lru.size() > FoxGlynnCache::kCapacity) {
        c.index.erase(c.lru.back().first);
        c.lru.pop_back();
    }
    return c.lru.front().second;
}

FoxGlynnCacheStats fox_glynn_cache_stats() {
    FoxGlynnCache& c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return c.stats;
}

void fox_glynn_cache_clear() {
    FoxGlynnCache& c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.lru.clear();
    c.index.clear();
    c.stats = {};
}

}  // namespace arcade::numeric
