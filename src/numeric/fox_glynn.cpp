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
    //
    // The weights are scaled so the mode m has value 1 and evaluated from it
    // outwards by the recurrences
    //   p_{k+1} = p_k * q / (k+1),  p_{k-1} = p_k * k / q,
    // so a weight never depends on the window: down[j] holds w_{m-j} and
    // up[j] w_{m+j}, and a wider attempt only extends the two chains.
    const std::size_t m = static_cast<std::size_t>(mode);
    std::vector<double> down{1.0};
    std::vector<double> up{1.0};
    double widths = 5.0;
    for (;; widths *= 1.5) {
        const auto bounds = window(widths);
        const std::size_t left = bounds.first;
        const std::size_t right = bounds.second;
        // The chains are independent: stepping them interleaved overlaps
        // the divisions of one with those of the other.
        while (down.size() <= m - left || up.size() <= right - m) {
            if (down.size() <= m - left) {
                down.push_back(down.back() * static_cast<double>(m + 1 - down.size()) / q);
            }
            if (up.size() <= right - m) {
                up.push_back(up.back() * q / static_cast<double>(m + up.size()));
            }
        }
        // Visits w_left .. w_right in index order.
        const auto each_weight = [&](auto&& visit) {
            for (std::size_t j = m - left; j > 0; --j) visit(down[j]);
            for (std::size_t j = 0; j <= right - m; ++j) visit(up[j]);
        };
        // Neumaier-compensated sum: the window can hold millions of terms
        // and a naively accumulated total would carry more rounding error
        // than the epsilons we must certify.
        linalg::NeumaierSum sum;
        each_weight([&](double w) { sum.add(w); });
        const double total = sum.value();
        // Certify coverage via geometric tail bounds in the same scaled
        // units as the weights.  (total * pmf(mode) is useless here: the
        // log-pmf cancels ~q-sized terms, so its error alone exceeds tight
        // epsilons once q is large.)  For k > right the ratio
        // p_{k+1}/p_k = q/(k+1) <= rr < 1, so the right tail is at most
        // w_right * rr/(1-rr); symmetrically for the left tail with
        // p_{k-1}/p_k = k/q <= rl < 1.
        const double rr = q / (static_cast<double>(right) + 1.0);
        double tail = up[right - m] * rr / (1.0 - rr);
        if (left > 0) {
            const double rl = static_cast<double>(left) / q;
            tail += down[m - left] * rl / (1.0 - rl);
        }
        const double truncated_mass = 1.0 - tail / total;
        if (truncated_mass >= 1.0 - epsilon) {
            out.left = left;
            out.right = right;
            out.weights.reserve(right - left + 1);
            each_weight([&](double w) { out.weights.push_back(w / total); });
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
    // q on the paper's grids); one pass of the paper's grid asks for 1603
    // distinct windows, about 1 MB of weights.
    static constexpr std::size_t kCapacity = 2048;
};

FoxGlynnCache& cache() {
    static FoxGlynnCache instance;
    return instance;
}

}  // namespace

std::vector<std::shared_ptr<const PoissonWeights>> fox_glynn_cached(
    std::span<const double> rates, double epsilon) {
    FoxGlynnCache& c = cache();
    const auto key_of = [&](std::size_t i) {
        return CacheKey{std::bit_cast<std::uint64_t>(rates[i]),
                        std::bit_cast<std::uint64_t>(epsilon)};
    };
    // Moves the entry of `key`, if any, to the front and returns it.
    const auto touch = [&](const CacheKey& key) -> std::shared_ptr<const PoissonWeights> {
        const auto it = c.index.find(key);
        if (it == c.index.end()) return nullptr;
        c.lru.splice(c.lru.begin(), c.lru, it->second);
        return c.lru.front().second;
    };
    std::vector<std::shared_ptr<const PoissonWeights>> out(rates.size());
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            out[i] = touch(key_of(i));
            if (out[i] != nullptr) ++c.stats.hits;
        }
    }
    // Compute outside the lock: the window search can be expensive and may
    // throw.  Two threads racing on the same key both compute the same
    // deterministic weights; the loser's insert below just finds the entry
    // already present.
    std::vector<std::shared_ptr<const PoissonWeights>> fresh(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (out[i] == nullptr) {
            fresh[i] = std::make_shared<const PoissonWeights>(fox_glynn(rates[i], epsilon));
        }
    }
    std::lock_guard<std::mutex> lock(c.mutex);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (fresh[i] == nullptr) continue;
        ++c.stats.misses;
        out[i] = touch(key_of(i));
        if (out[i] != nullptr) continue;
        c.lru.emplace_front(key_of(i), std::move(fresh[i]));
        c.index.emplace(key_of(i), c.lru.begin());
        if (c.lru.size() > FoxGlynnCache::kCapacity) {
            c.index.erase(c.lru.back().first);
            c.lru.pop_back();
        }
        out[i] = c.lru.front().second;
    }
    return out;
}

std::shared_ptr<const PoissonWeights> fox_glynn_cached(double q, double epsilon) {
    return fox_glynn_cached(std::span<const double>(&q, 1), epsilon).front();
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
