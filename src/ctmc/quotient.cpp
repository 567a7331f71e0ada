#include "ctmc/quotient.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "support/errors.hpp"

namespace arcade::ctmc {

using graph::double_bits;

namespace {

[[noreturn]] void throw_values_not_block_constant() {
    throw InvalidArgument(
        "QuotientCtmc: values are not block-constant — the lump signature does not "
        "cover them");
}

/// A signature resolved against one chain: label bit vectors by pointer.
/// Throws InvalidArgument when a label is missing from the chain or a value
/// row has the wrong size.
class ResolvedSignature {
public:
    ResolvedSignature(const Ctmc& chain, const LumpSignature& signature)
        : values_(signature.values) {
        labels_.reserve(signature.labels.size());
        for (const auto& name : signature.labels) {
            if (!chain.has_label(name)) {
                throw InvalidArgument("LumpSignature: chain has no label '" + name + "'");
            }
            labels_.push_back(&chain.label(name));
        }
        for (const auto& row : values_) {
            if (row.size() != chain.state_count()) {
                throw InvalidArgument("LumpSignature: value row size mismatch");
            }
        }
    }

    /// State s's exact signature key: label bits, then value bit patterns.
    void key(std::size_t s, std::vector<std::uint64_t>& out) const {
        out.clear();
        for (const auto* label : labels_) out.push_back((*label)[s] ? 1 : 0);
        for (const auto& row : values_) out.push_back(double_bits(row[s]));
    }

private:
    std::vector<const std::vector<bool>*> labels_;
    const std::vector<std::vector<double>>& values_;
};

/// The coarsest lumping refining the signature: the states sharing every
/// label bit and every value entry start in one block (exact, no hashing
/// shortcuts — the unordered_map compares full keys), then splitter-queue
/// refinement over the chain.
graph::Partition lump_directly(const Ctmc& original, const LumpSignature& signature) {
    const ResolvedSignature resolved(original, signature);
    const std::size_t n = original.state_count();
    std::vector<std::size_t> block_of(n, 0);
    std::unordered_map<std::vector<std::uint64_t>, std::size_t, graph::WordVectorHash> ids;
    std::vector<std::uint64_t> key;
    for (std::size_t s = 0; s < n; ++s) {
        resolved.key(s, key);
        block_of[s] = ids.try_emplace(key, ids.size()).first->second;
    }
    return graph::coarsest_lumping(original.rates(), block_of);
}

}  // namespace

QuotientCtmc::QuotientCtmc(const Ctmc& original, const LumpSignature& signature)
    : QuotientCtmc(build(original, lump_directly(original, signature), signature)) {}

QuotientCtmc::Build QuotientCtmc::build(const Ctmc& original, graph::Partition partition,
                                        const LumpSignature& signature) {
    const std::size_t n = original.state_count();
    const std::size_t m = partition.count;

    // One membership pass: block sizes, representatives (lowest-index
    // members) and the signature's value rows read off them, each member
    // checked against its block's entry.
    const auto& rows = signature.values;
    std::vector<std::size_t> block_sizes(m, 0);
    std::vector<std::size_t> representative(m, n);
    std::vector<std::vector<double>> values(rows.size(), std::vector<double>(m, 0.0));
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t b = partition.block_of[s];
        if (block_sizes[b] == 0) {
            representative[b] = s;
            for (std::size_t r = 0; r < rows.size(); ++r) values[r][b] = rows[r][s];
        } else {
            for (std::size_t r = 0; r < rows.size(); ++r) {
                if (double_bits(values[r][b]) != double_bits(rows[r][s])) {
                    throw_values_not_block_constant();
                }
            }
        }
        ++block_sizes[b];
    }

    // Quotient rates from block representatives: lumpability makes every
    // member's per-block sums identical (bitwise, by the sorted-sum
    // refinement), so the lowest-index member is canonical.
    linalg::CsrBuilder builder(m, m);
    std::map<std::size_t, double> row;  // ordered: deterministic accumulation
    for (std::size_t b = 0; b < m; ++b) {
        const std::size_t rep = representative[b];
        row.clear();
        const auto cols = original.rates().row_columns(rep);
        const auto vals = original.rates().row_values(rep);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == rep) continue;
            const std::size_t target = partition.block_of[cols[k]];
            if (target == b) continue;  // intra-block moves vanish
            row[target] += vals[k];
        }
        for (const auto& [target, rate] : row) builder.add(b, target, rate);
    }

    std::vector<double> initial(m, 0.0);
    const auto& original_initial = original.initial_distribution();
    for (std::size_t s = 0; s < n; ++s) initial[partition.block_of[s]] += original_initial[s];

    Ctmc chain(builder.build(), std::move(initial));
    for (const auto& name : signature.labels) {
        const auto& bits = original.label(name);
        std::vector<bool> projected(m, false);
        for (std::size_t b = 0; b < m; ++b) projected[b] = bits[representative[b]];
        chain.set_label(name, std::move(projected));
    }
    return Build{std::move(partition.block_of), std::move(block_sizes), std::move(values),
                 std::move(chain)};
}

std::vector<double> QuotientCtmc::project(std::span<const double> per_state) const {
    ARCADE_ASSERT(per_state.size() == block_of_.size(), "projection size mismatch");
    std::vector<double> out(block_count(), 0.0);
    for (std::size_t s = 0; s < per_state.size(); ++s) out[block_of_[s]] += per_state[s];
    return out;
}

std::vector<bool> QuotientCtmc::project_mask(const std::vector<bool>& per_state) const {
    ARCADE_ASSERT(per_state.size() == block_of_.size(), "mask size mismatch");
    std::vector<bool> out(block_count(), false);
    std::vector<bool> seen(block_count(), false);
    for (std::size_t s = 0; s < per_state.size(); ++s) {
        const std::size_t b = block_of_[s];
        if (!seen[b]) {
            seen[b] = true;
            out[b] = per_state[s];
        } else if (out[b] != per_state[s]) {
            throw InvalidArgument(
                "QuotientCtmc: mask is not block-constant — the lump signature does not "
                "cover it");
        }
    }
    return out;
}

std::vector<double> QuotientCtmc::project_values(std::span<const double> per_state) const {
    ARCADE_ASSERT(per_state.size() == block_of_.size(), "value row size mismatch");
    std::vector<double> out(block_count(), 0.0);
    std::vector<bool> seen(block_count(), false);
    for (std::size_t s = 0; s < per_state.size(); ++s) {
        const std::size_t b = block_of_[s];
        if (!seen[b]) {
            seen[b] = true;
            out[b] = per_state[s];
        } else if (double_bits(out[b]) != double_bits(per_state[s])) {
            throw_values_not_block_constant();
        }
    }
    return out;
}

}  // namespace arcade::ctmc
