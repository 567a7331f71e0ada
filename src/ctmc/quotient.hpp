// Automatic CTMC reduction by strong-bisimulation lumping.
//
// A LumpSignature names everything a measure reads off a chain — labels and
// per-state value vectors (reward rates, service levels).  The QuotientCtmc
// is the coarsest ordinary-lumping quotient respecting that signature: every
// signature label and value vector is constant on each block, so any
// transient, steady-state, bounded-until or Markov-reward quantity whose
// state functional is built from the signature evaluates *exactly* on the
// quotient chain (project the initial distribution, run the unchanged
// solver, read block masses).  This is the reduction Table 1 of the paper
// obtains by hand-written lumped encodings, applied automatically to any
// chain — the same state-space move network-recovery MDPs and water-network
// maintenance studies rely on to stay tractable.
//
// The partition is the signature partition refined by
// graph::coarsest_lumping over every state of the chain.  The quotient rates,
// initial distribution, labels and value rows are read off each block's
// lowest-index member.  The per-block value rows (values()) let a measure
// whose inputs come from the signature build them per block, without a
// chain-sized vector to project.
//
// An individual model explored on the lumped encoding (core::compile under
// ReductionPolicy::Auto) has a chain that is already an exact lumping of
// the full chain, and its coarsest quotient is the full chain's: the
// compiler lumps that lumped chain, so refinement never sees the full chain.
//
// lift() spreads block mass uniformly over members.  That is exact for every
// block-constant functional (anything in the signature) but *not* a
// per-state statement: two bisimilar states need not carry equal long-run
// mass.  Consumers that read per-state values outside the signature must
// analyse the original chain.
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

    /// Distribution lift: block mass spread uniformly over members.  Exact
    /// for block-constant functionals; see the header comment.
    [[nodiscard]] std::vector<double> lift(std::span<const double> per_block) const;

    /// Value lift: every member receives its block's value verbatim (the
    /// inverse of project_values).  This is the lift for per-state
    /// *functionals* — CSL satisfaction probabilities, reward values — which
    /// are block-constant on bisimilar states, unlike distribution mass.
    [[nodiscard]] std::vector<double> lift_values(std::span<const double> per_block) const;

    /// Mask lift: every member receives its block's bit verbatim (the
    /// inverse of project_mask) — CSL satisfaction sets come back this way.
    [[nodiscard]] std::vector<bool> lift_mask(const std::vector<bool>& per_block) const;

    /// Series lift: one lifted distribution per grid point.
    [[nodiscard]] std::vector<std::vector<double>> lift_series(
        const std::vector<std::vector<double>>& per_block_series) const;

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
