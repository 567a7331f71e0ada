// CTMC reduction by strong-bisimulation lumping, on demand.
//
// A LumpSignature names everything a measure reads off a chain — labels and
// per-state value vectors (reward rates, service levels).  The QuotientCtmc
// is the coarsest ordinary-lumping quotient respecting that signature: every
// signature label and value vector is constant on each block, so any
// transient, steady-state, bounded-until or Markov-reward quantity whose
// state functional is built from the signature evaluates *exactly* on the
// quotient chain (project the initial distribution, run the unchanged
// solver, read block masses).  This is the reduction Table 1 of the paper
// obtains by hand-written lumped encodings, computed for any chain.
//
// The partition is the signature partition refined by
// graph::coarsest_lumping over every state of the chain.  The quotient rates,
// initial distribution, labels and value rows (values()) are read off each
// block's lowest-index member.
//
// No analysis in this library runs on a quotient.  Under
// ReductionPolicy::Auto core::compile explores an individual model on the
// lumped encoding, whose chain is already an exact lumping of the full
// chain and, on every shipped model, its own coarsest quotient; the
// analyses read that chain.  CompiledModel::quotient() builds this class
// on demand, and the tests use it as the reference the lumped encoding is
// checked against.
#ifndef ARCADE_CTMC_QUOTIENT_HPP
#define ARCADE_CTMC_QUOTIENT_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "graph/lumping.hpp"

namespace arcade::ctmc {

/// The observation surface a quotient must preserve: chain labels by name
/// plus arbitrary per-state value rows.  States differing in any entry are
/// never merged.
struct LumpSignature {
    std::vector<std::string> labels;          ///< labels of the chain to respect
    std::vector<std::vector<double>> values;  ///< per-state rows to respect
};

/// The quotient of a chain under the coarsest lumping respecting a
/// signature.  Owns the block map and a fully-formed quotient Ctmc (rates
/// between blocks, projected initial distribution, projected signature
/// labels) that every existing solver runs on unchanged.
class QuotientCtmc {
public:
    /// Computes the quotient.  Throws InvalidArgument when a signature
    /// label is missing from the chain, a value row has the wrong size or
    /// is not constant on a block.
    QuotientCtmc(const Ctmc& original, const LumpSignature& signature);

    /// The quotient chain (block-level CTMC).
    [[nodiscard]] const Ctmc& chain() const noexcept { return chain_; }

    /// The signature's value rows per block, in signature order: row i,
    /// entry b is signature.values[i] at every member of block b (bitwise
    /// what project_values(signature.values[i]) returns).
    [[nodiscard]] const std::vector<std::vector<double>>& values() const noexcept {
        return values_;
    }

    [[nodiscard]] std::size_t original_state_count() const noexcept {
        return block_of_.size();
    }
    [[nodiscard]] std::size_t block_count() const noexcept { return block_sizes_.size(); }
    [[nodiscard]] std::size_t block_of(std::size_t state) const { return block_of_[state]; }
    [[nodiscard]] const std::vector<std::size_t>& block_map() const noexcept {
        return block_of_;
    }
    [[nodiscard]] const std::vector<std::size_t>& block_sizes() const noexcept {
        return block_sizes_;
    }

    /// States per block — the headline reduction factor (>= 1).
    [[nodiscard]] double reduction_ratio() const noexcept {
        return block_count() > 0 ? static_cast<double>(original_state_count()) /
                                       static_cast<double>(block_count())
                                 : 1.0;
    }

    /// Distribution projection: block mass = sum of member mass.
    [[nodiscard]] std::vector<double> project(std::span<const double> per_state) const;

    /// Mask projection.  Throws InvalidArgument when the mask is not
    /// block-constant (i.e. the signature did not cover it).
    [[nodiscard]] std::vector<bool> project_mask(const std::vector<bool>& per_state) const;

    /// Per-state value projection (reward rates).  Throws InvalidArgument
    /// when the values are not exactly block-constant.
    [[nodiscard]] std::vector<double> project_values(
        std::span<const double> per_state) const;

private:
    struct Build {
        std::vector<std::size_t> block_of;
        std::vector<std::size_t> block_sizes;
        std::vector<std::vector<double>> values;
        Ctmc chain;
    };
    explicit QuotientCtmc(Build&& b)
        : block_of_(std::move(b.block_of)),
          block_sizes_(std::move(b.block_sizes)),
          values_(std::move(b.values)),
          chain_(std::move(b.chain)) {}
    static Build build(const Ctmc& original, graph::Partition partition,
                       const LumpSignature& signature);

    std::vector<std::size_t> block_of_;
    std::vector<std::size_t> block_sizes_;
    std::vector<std::vector<double>> values_;
    Ctmc chain_;
};

}  // namespace arcade::ctmc

#endif  // ARCADE_CTMC_QUOTIENT_HPP
