// Continuous-time Markov chain with atomic-proposition labelling.
//
// This is the analysis substrate the paper obtains from PRISM: an explicit
// sparse rate matrix over an explored state space, plus named state sets
// (labels) used by the CSL/CSRL layer and the Arcade measures.
#ifndef ARCADE_CTMC_CTMC_HPP
#define ARCADE_CTMC_CTMC_HPP

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/kernels.hpp"

namespace arcade::ctmc {

/// Immutable CTMC: rate matrix R (off-diagonal, R[i][j] = rate i -> j),
/// an initial distribution, and named boolean labellings.
class Ctmc {
public:
    /// Throws InvalidArgument unless the matrix is square, every rate is
    /// finite and >= 0, and the initial distribution is valid (see
    /// set_initial_distribution).
    Ctmc(linalg::CsrMatrix rates, std::vector<double> initial_distribution);

    [[nodiscard]] std::size_t state_count() const noexcept { return rates_.rows(); }
    [[nodiscard]] std::size_t transition_count() const noexcept { return rates_.nonzeros(); }

    [[nodiscard]] const linalg::CsrMatrix& rates() const noexcept { return rates_; }
    [[nodiscard]] const std::vector<double>& initial_distribution() const noexcept {
        return initial_;
    }

    /// Total exit rate of `state`.  Cached at construction: uniformisation
    /// reads these on every solver setup, so they must not re-sum CSR rows.
    [[nodiscard]] double exit_rate(std::size_t state) const {
        return exit_rates_[state];
    }
    /// Largest exit rate over all states (uniformisation constant basis).
    [[nodiscard]] double max_exit_rate() const noexcept { return max_exit_rate_; }
    /// Largest exit rate over the states outside `absorbing`: the
    /// max_exit_rate() of make_absorbing(absorbing), without building it.
    [[nodiscard]] double max_exit_rate(const std::vector<bool>& absorbing) const;

    /// Registers a named state set.  Replaces an existing label of that name.
    void set_label(const std::string& name, std::vector<bool> states);
    [[nodiscard]] bool has_label(const std::string& name) const;
    [[nodiscard]] const std::vector<bool>& label(const std::string& name) const;
    /// Sorted snapshot: the registry itself is unordered (hash map on the
    /// hot lookup path), but exporters need a deterministic order.
    [[nodiscard]] std::vector<std::string> label_names() const;

    /// Point distribution helper.
    [[nodiscard]] static std::vector<double> point_distribution(std::size_t n,
                                                                std::size_t state);

    /// Returns a copy where every state in `absorbing` has its outgoing
    /// transitions removed.  Labels and initial distribution are preserved.
    [[nodiscard]] Ctmc make_absorbing(const std::vector<bool>& absorbing) const;

    /// Replaces the initial distribution.  Throws InvalidArgument unless it
    /// has one entry per state, every entry is finite and >= -1e-12, and
    /// the mass is within 1e-9 of 1 (the caller normalises).
    void set_initial_distribution(std::vector<double> initial);

private:
    linalg::CsrMatrix rates_;
    std::vector<double> initial_;
    std::vector<double> exit_rates_;  ///< per-state row sums sans diagonal
    double max_exit_rate_ = 0.0;
    std::unordered_map<std::string, std::vector<bool>> labels_;
};

/// P = I + Q/lambda of `chain` at linalg::uniformisation_rate of its largest
/// exit rate.  With `absorbing`, the states in it are made absorbing first —
/// the uniformised make_absorbing(*absorbing), same bits, without the copy.
[[nodiscard]] linalg::UniformisedMatrix uniformise(const Ctmc& chain,
                                                   const std::vector<bool>* absorbing = nullptr);

}  // namespace arcade::ctmc

#endif  // ARCADE_CTMC_CTMC_HPP
