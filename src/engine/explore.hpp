// Deterministic parallel breadth-first state-space exploration over the
// packed state store, assembling the chain's CSR rate matrix as it goes.
//
// The frontier is processed level-synchronously: each BFS level is sharded
// into contiguous chunks, one per std::thread worker.  Workers evaluate
// successors independently (the expensive part: guard/rate evaluation and
// encoder logic) into per-shard buffers — packed target words plus rates,
// grouped by source.  A serial merge then walks the shards in source order,
// interning targets.  Because the merge consumes emissions in exactly the
// order a single-threaded BFS would produce them, state numbering and every
// row are identical for every thread count — parallel exploration is
// bit-compatible with serial, which the tier-1 tests assert.
//
// Sources are numbered in BFS order and each source's emissions arrive
// contiguously (inline and merged alike), so the rate matrix is built row by
// row: a source's interned (target, rate) pairs are appended and the row is
// closed as soon as its last emission is in — self-loops dropped (CTMC
// no-ops), then linalg::sort_and_sum_row(), the library's one duplicate-sum
// contract.
#ifndef ARCADE_ENGINE_EXPLORE_HPP
#define ARCADE_ENGINE_EXPLORE_HPP

#include <algorithm>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/state_store.hpp"
#include "linalg/csr_matrix.hpp"
#include "support/errors.hpp"

namespace arcade::engine {

struct EngineOptions {
    /// Explosion guard.  At most linalg::kMaxIndex (state numbers are
    /// 32-bit column indices); explore_bfs throws ModelError otherwise.
    std::size_t max_states = 50'000'000;
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    unsigned threads = 0;
};

/// Result of an exploration: interned states (index order = BFS discovery
/// order) and the square rate matrix over them — self-loops dropped, rows
/// column-sorted, duplicate targets summed in emission order.
struct Explored {
    StateStore store;
    linalg::CsrMatrix rates;
};

/// Resolves an EngineOptions thread request against the hardware.
inline unsigned resolve_threads(unsigned requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/// Explores the reachable state space from `initial`.
///
/// `make_worker()` must return an independent worker; it is called once per
/// shard a level actually runs on, so at most `threads` times and exactly
/// once for a model whose levels all run inline.  A worker is a callable
/// `worker(std::span<const std::int64_t> state, auto&& emit)` that calls
/// `emit(std::span<const Int> target, double rate)` — any integral element
/// type — for every outgoing transition.  Workers only read shared model
/// data, so the same factory serves the serial and the parallel path.  Zero
/// rates are dropped; negative rates throw ModelError.
template <typename WorkerFactory>
Explored explore_bfs(const StateLayout& layout, std::span<const std::int64_t> initial,
                     WorkerFactory&& make_worker, const EngineOptions& options = {}) {
    // State numbers are the rate matrix's column indices; the explosion
    // guard below keeps them in range once max_states is.
    if (options.max_states > linalg::kMaxIndex) {
        throw ModelError("max_states " + std::to_string(options.max_states) +
                         " exceeds the " + std::to_string(linalg::kMaxIndex) +
                         "-state limit of the 32-bit rate-matrix index");
    }
    StateStore store(layout);
    const std::size_t wps = layout.words_per_state();
    const std::size_t fields = layout.field_count();

    std::vector<std::uint64_t> packed(wps);
    layout.pack(initial, packed.data());
    store.intern(packed.data());

    const unsigned threads = resolve_threads(options.threads);

    const auto check_explosion = [&options](std::size_t states) {
        if (states > options.max_states) {
            throw ModelError("state-space explosion: more than " +
                             std::to_string(options.max_states) + " states");
        }
    };

    // The rate matrix, one row per source in BFS order.  The open row is
    // [row_ptr.back(), col_idx.size()): append() leaves self-loops out and
    // close_row() sorts and sums the row in place.
    std::vector<std::size_t> row_ptr{0};
    std::vector<linalg::Index> col_idx;
    std::vector<double> values;
    const auto append = [&](std::size_t source, std::size_t target, double rate) {
        if (target == source) return;  // rate self-loop: a CTMC no-op
        col_idx.push_back(static_cast<linalg::Index>(target));
        values.push_back(rate);
    };
    const auto close_row = [&] {
        const std::size_t begin = row_ptr.back();
        const std::size_t end = linalg::sort_and_sum_row(col_idx.data(), values.data(), begin,
                                                         col_idx.size(), begin);
        col_idx.resize(end);
        values.resize(end);
        row_ptr.push_back(end);
    };

    // Per-shard successor buffer: packed target words and rates, plus the
    // number of emissions of every source in the shard (merge ordering key).
    struct Shard {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::vector<std::uint64_t> words;
        std::vector<double> rates;
        std::vector<std::uint32_t> emitted;  // per source in [begin, end)
        std::exception_ptr error;
    };

    struct WorkerState {
        decltype(make_worker()) worker;
        std::vector<std::int64_t> values;
        std::vector<std::uint64_t> packed;
    };
    // Workers and shards are made on first use, up to the number of shards
    // a level activates — never `threads` of them up front.
    std::vector<WorkerState> workers;
    std::vector<Shard> shards;
    const auto ensure_workers = [&](std::size_t count) {
        if (workers.size() >= count) return;
        workers.reserve(count);
        while (workers.size() < count) {
            workers.push_back(WorkerState{make_worker(), std::vector<std::int64_t>(fields),
                                          std::vector<std::uint64_t>(wps)});
        }
    };

    // Levels smaller than this per thread are not worth a thread
    // create/join cycle; they run inline on the calling thread.
    constexpr std::size_t kMinShardStates = 128;

    std::size_t level_begin = 0;
    while (level_begin < store.size()) {
        check_explosion(store.size());
        const std::size_t level_end = store.size();
        const std::size_t count = level_end - level_begin;
        const auto active = static_cast<unsigned>(std::min<std::size_t>(
            threads, std::max<std::size_t>(1, count / kMinShardStates)));
        ensure_workers(active);

        if (active <= 1) {
            // Inline path: intern targets as they are emitted — exactly the
            // order the merge below reproduces, so numbering is unaffected.
            WorkerState& w = workers[0];
            for (std::size_t si = level_begin; si < level_end; ++si) {
                store.unpack(si, std::span<std::int64_t>(w.values));
                w.worker(std::span<const std::int64_t>(w.values),
                         [&](auto target, double rate) {
                             if (rate < 0.0) throw ModelError("negative transition rate");
                             if (rate == 0.0) return;
                             layout.pack(target, w.packed.data());
                             const auto [index, inserted] = store.intern(w.packed.data());
                             if (inserted) check_explosion(store.size());
                             append(si, index, rate);
                         });
                close_row();
            }
            level_begin = level_end;
            continue;
        }

        const std::size_t per_shard = (count + active - 1) / active;

        if (shards.size() < active) shards.resize(active);
        for (unsigned t = 0; t < active; ++t) {
            Shard& shard = shards[t];
            shard.begin = level_begin + std::min<std::size_t>(count, t * per_shard);
            shard.end = level_begin + std::min<std::size_t>(count, (t + 1) * per_shard);
            shard.words.clear();
            shard.rates.clear();
            shard.emitted.assign(shard.end - shard.begin, 0);
            shard.error = nullptr;
        }

        auto run_shard = [&](unsigned t) {
            Shard& shard = shards[t];
            WorkerState& w = workers[t];
            try {
                for (std::size_t si = shard.begin; si < shard.end; ++si) {
                    store.unpack(si, std::span<std::int64_t>(w.values));
                    w.worker(std::span<const std::int64_t>(w.values),
                             [&](auto target, double rate) {
                                 if (rate < 0.0) {
                                     throw ModelError("negative transition rate");
                                 }
                                 if (rate == 0.0) return;
                                 layout.pack(target, w.packed.data());
                                 shard.words.insert(shard.words.end(), w.packed.begin(),
                                                    w.packed.end());
                                 shard.rates.push_back(rate);
                                 ++shard.emitted[si - shard.begin];
                             });
                }
            } catch (...) {
                shard.error = std::current_exception();
            }
        };

        {
            std::vector<std::thread> pool;
            pool.reserve(active - 1);
            for (unsigned t = 1; t < active; ++t) pool.emplace_back(run_shard, t);
            run_shard(0);
            for (auto& th : pool) th.join();
        }
        for (unsigned t = 0; t < active; ++t) {
            if (shards[t].error) std::rethrow_exception(shards[t].error);
        }

        // Serial merge in source order: identical interning order and rows
        // to the serial path.  The explosion guard runs per intern, like the
        // serial path's per-state check, so a blowing-up level cannot
        // intern unboundedly before the ModelError fires.
        for (unsigned t = 0; t < active; ++t) {
            const Shard& shard = shards[t];
            std::size_t cursor = 0;
            for (std::size_t si = shard.begin; si < shard.end; ++si) {
                const std::uint32_t n = shard.emitted[si - shard.begin];
                for (std::uint32_t k = 0; k < n; ++k, ++cursor) {
                    const auto [index, inserted] =
                        store.intern(shard.words.data() + cursor * wps);
                    if (inserted) check_explosion(store.size());
                    append(si, index, shard.rates[cursor]);
                }
                close_row();
            }
        }
        level_begin = level_end;
    }

    // Growth slack goes back: the arrays carry exactly their entries.
    row_ptr.shrink_to_fit();
    col_idx.shrink_to_fit();
    values.shrink_to_fit();
    const std::size_t n = store.size();
    return Explored{std::move(store),
                    linalg::CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                                      std::move(values))};
}

}  // namespace arcade::engine

#endif  // ARCADE_ENGINE_EXPLORE_HPP
