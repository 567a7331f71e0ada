// Coarsest ordinary-lumping (strong-bisimulation) partition of a weighted
// digraph — the reduction behind the paper's "drastic state-space
// minimisation": states are merged when they carry the same per-block
// outgoing rate sums towards every other block.
//
// The refinement is Valmari–Franceschinis-style, driven by a worklist of
// splitter blocks.  Processing splitter S touches only the *predecessors*
// of S's members: each touched state's rates into S are sorted by exact bit
// pattern and summed, and every block holding touched states is split by
// those sums (states with no edge into S form their own group: no edge is
// a different signature from a zero-valued sum).  Whenever a
// block splits, all parts re-enter the queue.  Work is proportional to the
// in-edges of the splitters processed instead of one full O(m log n) sweep
// per round, which is what makes huge individual encodings cheap to lump
// (test_lumping keeps the round-based signature refinement as its reference
// and asserts this scans fewer edges on every line-2 individual encoding).
// Hopcroft's process-all-but-the-largest-part trick is deliberately NOT
// used: its correctness relies on w(s, B \ B') = w(s, B) - w(s, B'), an
// identity of exact arithmetic that floating-point sums do not satisfy
// bitwise — re-queueing every part keeps the result identical to the
// round-based reference on every input.
//
// A fixed point is exactly an ordinarily lumpable partition, and the
// refinement converges to the *coarsest* lumpable refinement of the initial
// partition: if Q is lumpable and refines partition P, then for states s,t
// sharing a Q-block and any P-block C != block_P(s), C is a union of
// Q-blocks distinct from block_Q(s), so r(s,C) = sum of per-Q-block rates =
// r(t,C) — s and t survive every split.  Per-(state, block) sums are always
// accumulated in sorted bit-pattern order, so equal rate multisets produce
// bitwise-identical sums.
//
// Rates towards a state's *own* block (and diagonal entries) are deliberately
// ignored: intra-block transitions never change the block of the aggregated
// process, so ordinary lumpability does not constrain them.
#ifndef ARCADE_GRAPH_LUMPING_HPP
#define ARCADE_GRAPH_LUMPING_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "support/fnv1a.hpp"

namespace arcade::graph {

/// Exact bit pattern of a double (signature keys must distinguish values
/// the way the refinement compares them: bitwise).
[[nodiscard]] inline std::uint64_t double_bits(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/// Hash for word-sequence keys (per-state signatures).
struct WordVectorHash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const noexcept {
        std::uint64_t h = kFnv1aBasis;
        for (const std::uint64_t w : key) h = fnv1a_mix(h, w);
        return static_cast<std::size_t>(h);
    }
};

/// A partition of the vertex set into consecutively numbered blocks.
/// Block ids are assigned in order of first occurrence by vertex index, so
/// the numbering is deterministic (vertex 0 is always in block 0).
struct Partition {
    std::vector<std::size_t> block_of;  ///< block_of[v] = block id of vertex v
    std::size_t count = 0;              ///< number of blocks

    [[nodiscard]] std::size_t size() const noexcept { return block_of.size(); }

    /// Members of each block, in ascending vertex order.
    [[nodiscard]] std::vector<std::vector<std::size_t>> members() const;
};

/// Work counters of one refinement run (test_lumping compares them).
struct LumpingStats {
    /// Block count of the final partition (block counts only ever grow, so
    /// this is also the peak).
    std::size_t blocks = 0;
    /// Total (state, rate) contributions scanned — the work actually done.
    std::size_t edges_scanned = 0;
};

/// The coarsest ordinary-lumping partition of `rates` refining the initial
/// partition `initial_block_of` (vertices with equal entries start in the
/// same block; the numbering itself is irrelevant).  Diagonal entries are
/// ignored.  Rate comparisons are exact: per-(state, target-block) sums are
/// accumulated in sorted value order, so two states with the same multiset
/// of block-labelled rates produce bitwise-identical signatures.  `stats`,
/// when given, receives the run's work counters.
[[nodiscard]] Partition coarsest_lumping(const linalg::CsrMatrix& rates,
                                         const std::vector<std::size_t>& initial_block_of,
                                         LumpingStats* stats = nullptr);

}  // namespace arcade::graph

#endif  // ARCADE_GRAPH_LUMPING_HPP
