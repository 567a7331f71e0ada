// Deterministic breadth-first state-space exploration over the packed state
// store, assembling the chain's CSR rate matrix as it goes.
//
// One serial loop: sources are taken in BFS order and every emitted target
// is interned as it arrives, so state numbering is BFS discovery order.
// Each source's emissions arrive contiguously, so the rate matrix is built
// row by row: a source's interned (target, rate) pairs are appended and the
// row is closed as soon as its last emission is in — self-loops dropped
// (CTMC no-ops), then linalg::sort_and_sum_row(), the library's one
// duplicate-sum contract.
//
// Callers that compile many models (the sweep runner) parallelise across
// models, so one exploration never starts threads of its own.
#ifndef ARCADE_ENGINE_EXPLORE_HPP
#define ARCADE_ENGINE_EXPLORE_HPP

#include <cstdint>
#include <span>
#include <string>
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
/// `successors` is a callable `successors(std::span<const std::int64_t>
/// state, auto&& emit)` that calls `emit(std::span<const Int> target, double
/// rate)` — any integral element type — for every outgoing transition.  Zero
/// rates are dropped; negative rates throw ModelError.
template <typename Successors>
Explored explore_bfs(const StateLayout& layout, std::span<const std::int64_t> initial,
                     Successors&& successors, const EngineOptions& options = {}) {
    // State numbers are the rate matrix's column indices; the explosion
    // guard below keeps them in range once max_states is.
    if (options.max_states > linalg::kMaxIndex) {
        throw ModelError("max_states " + std::to_string(options.max_states) +
                         " exceeds the " + std::to_string(linalg::kMaxIndex) +
                         "-state limit of the 32-bit rate-matrix index");
    }
    StateStore store(layout);
    std::vector<std::uint64_t> packed(layout.words_per_state());
    layout.pack(initial, packed.data());
    store.intern(packed.data());

    const auto check_explosion = [&options](std::size_t states) {
        if (states > options.max_states) {
            throw ModelError("state-space explosion: more than " +
                             std::to_string(options.max_states) + " states");
        }
    };
    check_explosion(store.size());

    // The rate matrix, one row per source in BFS order.  The open row is
    // [row_ptr.back(), col_idx.size()); self-loops never enter it and the
    // row is sorted and summed in place once the source is done.
    std::vector<std::size_t> row_ptr{0};
    std::vector<linalg::Index> col_idx;
    std::vector<double> values;

    std::vector<std::int64_t> current(layout.field_count());
    for (std::size_t source = 0; source < store.size(); ++source) {
        store.unpack(source, std::span<std::int64_t>(current));
        successors(std::span<const std::int64_t>(current), [&](auto target, double rate) {
            if (rate < 0.0) throw ModelError("negative transition rate");
            if (rate == 0.0) return;
            layout.pack(target, packed.data());
            const auto [index, inserted] = store.intern(packed.data());
            if (inserted) check_explosion(store.size());
            if (index == source) return;  // rate self-loop: a CTMC no-op
            col_idx.push_back(static_cast<linalg::Index>(index));
            values.push_back(rate);
        });
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
