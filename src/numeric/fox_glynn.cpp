#include "numeric/fox_glynn.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::numeric {

PoissonWeights fox_glynn(double q, double epsilon) {
    // From 2^53 on a double no longer holds every integer near q, so the
    // window's indices cannot be formed (cast to size_t, a q past 2^64
    // collapsed the window to {0} and a large one exhausted memory).
    if (!std::isfinite(q) || q >= 0x1p53) {
        throw InvalidArgument("fox_glynn: Poisson rate q=" + format_g17(q) +
                              " is not finite or not below 2^53");
    }
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

/// One window of the cache.  A lookup that misses inserts it Unclaimed; the
/// first caller to claim it (Unclaimed -> Computing) computes it outside the
/// lock and publishes Ready or Failed.  The state only moves forward, so a
/// caller that has passed an entry in its claim loop never sees it Unclaimed
/// again, and every caller that waits on it waits for a claimer that is
/// computing it.
struct Entry {
    enum State : unsigned char { Unclaimed, Computing, Ready, Failed };
    std::atomic<unsigned char> state{Unclaimed};
    PoissonWeights weights;    ///< written by the claimer before Ready
    std::exception_ptr error;  ///< written by the claimer before Failed
};

/// The cache: an open-addressing index of 2·kCapacity slots, probed
/// linearly under one mutex, so a lookup is one probe and a miss one
/// allocation.  A Failed entry is replaced by the next lookup of its key,
/// and a miss that finds kCapacity entries empties the index; batches keep
/// the entries they hold either way, so neither disturbs a claim.
struct FoxGlynnCache {
    // Each series cell asks for one window per grid point (91–101 distinct
    // q on the paper's grids); one pass of the paper's grid asks for 1603
    // distinct windows, about 1 MB of weights.
    static constexpr std::size_t kCapacity = 2048;
    static constexpr int kSlotBits = std::bit_width(2 * kCapacity - 1);
    using Slot = std::pair<CacheKey, std::shared_ptr<Entry>>;  ///< empty while the entry is null

    std::mutex mutex;
    std::vector<Slot> slots = std::vector<Slot>(2 * kCapacity);
    std::size_t size = 0;  ///< non-empty slots
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> misses{0};

    /// The slot holding `key`, or the empty slot where it goes (Fibonacci
    /// hashing: the product's top bits depend on every bit of the key).
    std::size_t probe(const CacheKey& key) const {
        std::size_t i =
            (key.first ^ std::rotl(key.second, 32)) * 0x9e3779b97f4a7c15u >> (64 - kSlotBits);
        while (slots[i].second != nullptr && slots[i].first != key) i = (i + 1) % slots.size();
        return i;
    }
};

FoxGlynnCache& cache() {
    static FoxGlynnCache instance;
    return instance;
}

}  // namespace

std::vector<std::shared_ptr<const PoissonWeights>> fox_glynn_cached(
    std::span<const double> rates, double epsilon) {
    FoxGlynnCache& c = cache();
    // Look every rate up under one lock; a miss inserts an unclaimed entry,
    // so a rate repeated in the batch, or asked for by another caller,
    // finds the same entry.
    std::vector<std::shared_ptr<Entry>> entries(rates.size());
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            const CacheKey key{std::bit_cast<std::uint64_t>(rates[i]),
                               std::bit_cast<std::uint64_t>(epsilon)};
            std::size_t slot = c.probe(key);
            if (c.slots[slot].second == nullptr && c.size == FoxGlynnCache::kCapacity) {
                c.slots.assign(c.slots.size(), {});
                c.size = 0;
                slot = c.probe(key);
            }
            auto& [slot_key, entry] = c.slots[slot];
            if (entry == nullptr) ++c.size;
            if (entry == nullptr || entry->state.load(std::memory_order_relaxed) == Entry::Failed) {
                slot_key = key;
                entry = std::make_shared<Entry>();
            }
            entries[i] = entry;
        }
    }
    // Claim and compute, in batch order, every entry no other caller has
    // claimed; only then wait for the ones others are still computing, so a
    // caller idles only once it has no window left to compute.
    std::size_t computed = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        Entry& e = *entries[i];
        // A plain load first: a hit should not take the entry's cache line.
        unsigned char expected = Entry::Unclaimed;
        if (e.state.load(std::memory_order_relaxed) != Entry::Unclaimed ||
            !e.state.compare_exchange_strong(expected, Entry::Computing)) {
            continue;
        }
        ++computed;
        c.misses.fetch_add(1, std::memory_order_relaxed);
        try {
            e.weights = fox_glynn(rates[i], epsilon);
        } catch (...) {
            // Errors are never cached: a lookup that finds the entry Failed
            // replaces it and computes again, while every caller already
            // holding this one rethrows its error.
            e.error = std::current_exception();
            e.state.store(Entry::Failed, std::memory_order_release);
            e.state.notify_all();
            throw;
        }
        e.state.store(Entry::Ready, std::memory_order_release);
        e.state.notify_all();
    }
    c.hits.fetch_add(rates.size() - computed, std::memory_order_relaxed);
    std::vector<std::shared_ptr<const PoissonWeights>> out(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        Entry& e = *entries[i];
        unsigned char state = e.state.load(std::memory_order_acquire);
        while (state == Entry::Computing) {
            e.state.wait(Entry::Computing, std::memory_order_acquire);
            state = e.state.load(std::memory_order_acquire);
        }
        if (state == Entry::Failed) std::rethrow_exception(e.error);
        // Shares ownership of the entry, so the weights outlive its slot.
        out[i] = std::shared_ptr<const PoissonWeights>(entries[i], &e.weights);
    }
    return out;
}

std::shared_ptr<const PoissonWeights> fox_glynn_cached(double q, double epsilon) {
    return fox_glynn_cached(std::span<const double>(&q, 1), epsilon).front();
}

FoxGlynnCacheStats fox_glynn_cache_stats() {
    FoxGlynnCache& c = cache();
    return {c.hits.load(std::memory_order_relaxed), c.misses.load(std::memory_order_relaxed)};
}

void fox_glynn_cache_clear() {
    FoxGlynnCache& c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.slots.assign(c.slots.size(), {});
    c.size = 0;
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
}

}  // namespace arcade::numeric
