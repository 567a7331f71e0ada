#include "graph/lumping.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "support/errors.hpp"

namespace arcade::graph {

namespace {

/// Renumbers arbitrary block labels into first-occurrence order.
Partition normalise(const std::vector<std::size_t>& labels) {
    Partition out;
    out.block_of.resize(labels.size());
    std::unordered_map<std::size_t, std::size_t> remap;
    remap.reserve(labels.size());
    for (std::size_t v = 0; v < labels.size(); ++v) {
        const auto [it, inserted] = remap.emplace(labels[v], out.count);
        if (inserted) ++out.count;
        out.block_of[v] = it->second;
    }
    return out;
}

/// The splitter-queue refinement (see the header comment): a worklist of
/// splitter blocks; processing one touches only the predecessors of its
/// members.  Every part of every split re-enters the queue, so when the
/// queue drains each block's states carry bitwise-equal sorted rate sums
/// towards every final block — the same fixed point round-based signature
/// sweeps reach, at a fraction of the scanned edges.
Partition coarsest_lumping_splitter(const linalg::CsrMatrix& rates, Partition partition,
                                    LumpingStats* stats) {
    const std::size_t n = rates.rows();

    // Incoming edges (transposed matrix), diagonal dropped: processing a
    // splitter needs "who sends rate into this block".
    const linalg::CsrMatrix incoming = linalg::incoming_off_diagonal(rates);
    const std::vector<std::size_t>& tbegin = incoming.row_ptr();
    const std::vector<linalg::Index>& tsource = incoming.col_idx();
    const std::vector<double>& trate = incoming.values();

    // Refinable partition: states grouped contiguously per block in `elems`,
    // with per-block [begin, end) ranges.  Blocks only ever split, so block
    // ids are stable and the arrays grow monotonically.
    std::vector<std::size_t> elems(n);
    std::vector<std::size_t> pos(n);
    std::vector<std::size_t> block_begin;
    std::vector<std::size_t> block_end;
    {
        block_begin.assign(partition.count, 0);
        block_end.assign(partition.count, 0);
        for (std::size_t s = 0; s < n; ++s) ++block_end[partition.block_of[s]];
        std::size_t offset = 0;
        for (std::size_t b = 0; b < partition.count; ++b) {
            block_begin[b] = offset;
            offset += block_end[b];
            block_end[b] = block_begin[b];
        }
        for (std::size_t s = 0; s < n; ++s) {
            const std::size_t b = partition.block_of[s];
            elems[block_end[b]] = s;
            pos[s] = block_end[b]++;
        }
    }

    std::deque<std::size_t> queue;
    std::vector<bool> in_queue(partition.count, false);
    for (std::size_t b = 0; b < partition.count; ++b) {
        queue.push_back(b);
        in_queue[b] = true;
    }

    // Scratch reused across splitters.  Contributions are grouped per source
    // state by counting sort (a global comparison sort of the contribution
    // list is the asymptotic bottleneck otherwise), then each state's few
    // rates are insertion-sorted by bit pattern before summing.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> contrib;  // (state, bits)
    contrib.reserve(tbegin[n]);
    std::vector<std::uint64_t> grouped(tbegin[n]);     // bits, grouped by state
    std::vector<std::size_t> group_count(n, 0);        // contributions per state
    std::vector<std::size_t> group_offset(n, 0);       // state's slice in `grouped`
    std::vector<std::size_t> touched_states;
    std::vector<std::uint64_t> wbits(n, 0);  // summed-weight bits, touched states
    std::vector<std::size_t> marked(partition.count, 0);  // touched per block
    std::vector<std::size_t> touched_blocks;

    const auto enqueue = [&](std::size_t b) {
        if (!in_queue[b]) {
            in_queue[b] = true;
            queue.push_back(b);
        }
    };

    while (!queue.empty()) {
        const std::size_t splitter = queue.front();
        queue.pop_front();
        in_queue[splitter] = false;

        // Gather every rate sent into the splitter from outside it.  Rates
        // from the splitter's own members are unconstrained by ordinary
        // lumpability, exactly like test_lumping's round-based reference
        // skips them.
        contrib.clear();
        touched_states.clear();
        for (std::size_t i = block_begin[splitter]; i < block_end[splitter]; ++i) {
            const std::size_t u = elems[i];
            for (std::size_t k = tbegin[u]; k < tbegin[u + 1]; ++k) {
                const std::size_t s = tsource[k];
                if (partition.block_of[s] == splitter) continue;
                contrib.emplace_back(s, double_bits(trate[k]));
                if (group_count[s]++ == 0) touched_states.push_back(s);
            }
        }
        if (stats != nullptr) stats->edges_scanned += contrib.size();
        if (contrib.empty()) continue;

        // Counting sort by state: slice `grouped` per touched state, then
        // drop each contribution into its state's slice.
        std::size_t grouped_size = 0;
        for (const std::size_t s : touched_states) {
            group_offset[s] = grouped_size;
            grouped_size += group_count[s];
            group_count[s] = 0;  // reused as the fill cursor
        }
        for (const auto& [state, bits] : contrib) {
            const std::size_t s = static_cast<std::size_t>(state);
            grouped[group_offset[s] + group_count[s]++] = bits;
        }

        // Per-state sums, each accumulated in ascending bit-pattern order —
        // the same order test_lumping's round-based reference uses, so the
        // two compare bitwise-identical values.  Per-state runs are a
        // handful of parallel rates: insertion sort.
        touched_blocks.clear();
        for (const std::size_t s : touched_states) {
            const std::size_t lo = group_offset[s];
            const std::size_t hi = lo + group_count[s];
            group_count[s] = 0;  // reset for the next splitter
            for (std::size_t i = lo + 1; i < hi; ++i) {
                const std::uint64_t bits = grouped[i];
                std::size_t j = i;
                for (; j > lo && grouped[j - 1] > bits; --j) grouped[j] = grouped[j - 1];
                grouped[j] = bits;
            }
            double sum = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                double rate = 0.0;
                std::memcpy(&rate, &grouped[i], sizeof rate);
                sum += rate;
            }
            wbits[s] = double_bits(sum);
            // Move s into the touched prefix of its block.
            const std::size_t b = partition.block_of[s];
            if (marked[b]++ == 0) touched_blocks.push_back(b);
            const std::size_t dest = block_begin[b] + marked[b] - 1;
            const std::size_t other = elems[dest];
            std::swap(elems[pos[s]], elems[dest]);
            pos[other] = pos[s];
            pos[s] = dest;
        }

        // Split every touched block: its untouched members (no edge into the
        // splitter — a *different* signature than a zero-valued sum) form one
        // group, touched members group by exact weight bits.
        for (const std::size_t b : touched_blocks) {
            const std::size_t tb = block_begin[b];
            const std::size_t te = tb + marked[b];
            const std::size_t be = block_end[b];
            marked[b] = 0;
            std::sort(elems.begin() + static_cast<std::ptrdiff_t>(tb),
                      elems.begin() + static_cast<std::ptrdiff_t>(te),
                      [&](std::size_t a, std::size_t c) {
                          if (wbits[a] != wbits[c]) return wbits[a] < wbits[c];
                          return a < c;
                      });
            for (std::size_t i = tb; i < te; ++i) pos[elems[i]] = i;

            // Runs of equal weight bits in [tb, te), then the untouched
            // remainder [te, be) if non-empty.
            std::size_t parts = (te < be) ? 1 : 0;
            for (std::size_t i = tb; i < te;) {
                const std::uint64_t w = wbits[elems[i]];
                for (; i < te && wbits[elems[i]] == w; ++i) {
                }
                ++parts;
            }
            if (parts == 1) continue;  // every member touched with one weight

            // First run keeps id b; every further part becomes a fresh block.
            // All parts re-enter the queue: Hopcroft's skip-the-largest trick
            // would need exact-arithmetic weight subtraction (header comment).
            std::size_t i = tb;
            {
                const std::uint64_t w = wbits[elems[i]];
                for (; i < te && wbits[elems[i]] == w; ++i) {
                }
                block_end[b] = i;
                enqueue(b);
            }
            while (i < be) {
                const std::size_t nb = block_begin.size();
                const std::size_t part_begin = i;
                if (i < te) {
                    const std::uint64_t w = wbits[elems[i]];
                    for (; i < te && wbits[elems[i]] == w; ++i) {
                        partition.block_of[elems[i]] = nb;
                    }
                } else {
                    for (; i < be; ++i) partition.block_of[elems[i]] = nb;
                }
                block_begin.push_back(part_begin);
                block_end.push_back(i);
                marked.push_back(0);
                in_queue.push_back(false);
                ++partition.count;
                enqueue(nb);
            }
        }
    }
    return partition;
}

}  // namespace

std::vector<std::vector<std::size_t>> Partition::members() const {
    std::vector<std::vector<std::size_t>> out(count);
    for (std::size_t v = 0; v < block_of.size(); ++v) out[block_of[v]].push_back(v);
    return out;
}

Partition coarsest_lumping(const linalg::CsrMatrix& rates,
                           const std::vector<std::size_t>& initial_block_of,
                           LumpingStats* stats) {
    const std::size_t n = rates.rows();
    ARCADE_ASSERT(rates.cols() == n, "lumping needs a square matrix");
    ARCADE_ASSERT(initial_block_of.size() == n, "initial partition size mismatch");
    Partition partition = normalise(initial_block_of);
    if (n == 0) {
        if (stats != nullptr) stats->blocks = partition.count;
        return partition;
    }
    partition = coarsest_lumping_splitter(rates, std::move(partition), stats);
    if (stats != nullptr) stats->blocks = partition.count;
    // Renumber into first-occurrence order: the identical partition always
    // comes back as the identical block_of array.
    return normalise(partition.block_of);
}

}  // namespace arcade::graph
