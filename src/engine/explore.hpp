// Deterministic breadth-first state-space exploration over the packed state
// store, assembling the chain's CSR rate matrix as it goes.
//
// One serial loop: sources are taken in BFS order, each decoded straight
// into the successor function's element type, and their emitted targets are
// interned in emission order, so state numbering is BFS discovery order.
// The emissions of one source form a batch: each is checked, packed and
// hashed as it arrives and its home slot prefetched, and only after the
// walk are they interned — so the table probes of a source overlap instead
// of waiting on each other.  A source that fails (a bad rate, a value out
// of range, the walk itself throwing) first interns the emissions before the
// failure and then rethrows it, which keeps the errors of a per-emission
// loop: an explosion raised by an earlier emission still wins.  The batch
// is also the source's row of the rate matrix: its interned (target, rate)
// pairs are appended — self-loops dropped (CTMC no-ops) — and the row closed
// with linalg::sort_and_sum_row(), the library's one duplicate-sum
// contract.
//
// Callers that compile many models (the sweep runner) parallelise across
// models, so one exploration never starts threads of its own.
#ifndef ARCADE_ENGINE_EXPLORE_HPP
#define ARCADE_ENGINE_EXPLORE_HPP

#include <cmath>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <type_traits>
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
};

/// Result of an exploration: interned states (index order = BFS discovery
/// order) and the square rate matrix over them — self-loops dropped, rows
/// column-sorted, duplicate targets summed in emission order.
struct Explored {
    StateStore store;
    linalg::CsrMatrix rates;
};

/// Explores the reachable state space from `initial`.
///
/// `successors` is a callable `successors(std::span<const Int> state, auto&&
/// emit)` that calls `emit(std::span<const T> target, double rate)` — any
/// integral element type T — for every outgoing transition.  `Int` (int64_t
/// unless given) is the element type every source is decoded into; each
/// field's range must fit it.  Zero rates are dropped; negative, infinite and
/// NaN rates throw ModelError.
template <typename Int = std::int64_t, typename Successors>
Explored explore_bfs(const StateLayout& layout, std::span<const std::type_identity_t<Int>> initial,
                     Successors&& successors, const EngineOptions& options = {}) {
    // State numbers are the rate matrix's column indices; the explosion
    // guard below keeps them in range once max_states is.
    if (options.max_states > linalg::kMaxIndex) {
        throw ModelError("max_states " + std::to_string(options.max_states) +
                         " exceeds the " + std::to_string(linalg::kMaxIndex) +
                         "-state limit of the 32-bit rate-matrix index");
    }
    StateStore store(layout);
    const std::size_t wps = layout.words_per_state();

    // Interns one packed state; the guard fires on the state that would pass
    // max_states, before it is stored.
    const auto intern = [&](const std::uint64_t* words, std::uint64_t hash) {
        if (store.size() == options.max_states && store.find(words) == SIZE_MAX) {
            throw ModelError("state-space explosion: more than " +
                             std::to_string(options.max_states) + " states");
        }
        return store.intern(words, hash).first;
    };
    std::vector<std::uint64_t> packed(wps);
    layout.pack(initial, packed.data());
    intern(packed.data(), store.hash(packed.data()));

    // One source's batch: its emissions' hashes and rates, and their packed
    // targets wps words apart (the buffer only grows).
    struct Emission {
        std::uint64_t hash;
        double rate;
    };
    std::vector<Emission> batch;
    std::vector<std::uint64_t> batch_words(wps);

    // The rate matrix, one row per source in BFS order.  The open row is
    // [row_ptr.back(), col_idx.size()); self-loops never enter it and the
    // row is sorted and summed in place once the source is done.
    std::vector<std::size_t> row_ptr{0};
    std::vector<linalg::Index> col_idx;
    std::vector<double> values;

    std::vector<Int> current(layout.field_count());
    for (std::size_t source = 0; source < store.size(); ++source) {
        store.unpack(source, std::span<Int>(current));
        batch.clear();
        std::exception_ptr failure;
        try {
            successors(std::span<const Int>(current), [&](auto target, double rate) {
                if (!std::isfinite(rate)) throw ModelError("non-finite transition rate");
                if (rate < 0.0) throw ModelError("negative transition rate");
                if (rate == 0.0) return;
                const std::size_t at = batch.size() * wps;
                if (at == batch_words.size()) batch_words.resize(2 * at);
                layout.pack(target, batch_words.data() + at);
                const std::uint64_t hash = store.hash(batch_words.data() + at);
                store.prefetch(hash);
                batch.push_back({hash, rate});
            });
        } catch (...) {
            failure = std::current_exception();
        }
        for (std::size_t k = 0; k < batch.size(); ++k) {
            const std::size_t index = intern(batch_words.data() + k * wps, batch[k].hash);
            if (index == source) continue;  // rate self-loop: a CTMC no-op
            col_idx.push_back(static_cast<linalg::Index>(index));
            values.push_back(batch[k].rate);
        }
        if (failure) std::rethrow_exception(failure);
        const std::size_t begin = row_ptr.back();
        const std::size_t end = linalg::sort_and_sum_row(col_idx.data(), values.data(), begin,
                                                         col_idx.size(), begin);
        col_idx.resize(end);
        values.resize(end);
        row_ptr.push_back(end);
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
