#include "ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>

#include "support/errors.hpp"

namespace arcade::ctmc {

namespace {

/// The one check of an initial distribution over `n` states: every
/// probability finite and >= -1e-12, the mass within 1e-9 of 1.  The
/// comparisons are written so that NaN fails them.
void validate_initial(std::span<const double> initial, std::size_t n) {
    if (initial.size() != n) throw InvalidArgument("initial distribution size mismatch");
    double mass = 0.0;
    for (const double p : initial) {
        if (!std::isfinite(p)) throw InvalidArgument("non-finite initial probability");
        if (p < -1e-12) throw InvalidArgument("negative initial probability");
        mass += p;
    }
    if (!(std::abs(mass - 1.0) < 1e-9)) {
        throw InvalidArgument("initial distribution must sum to 1");
    }
}

}  // namespace

Ctmc::Ctmc(linalg::CsrMatrix rates, std::vector<double> initial_distribution)
    : rates_(std::move(rates)), initial_(std::move(initial_distribution)) {
    if (rates_.rows() != rates_.cols()) throw InvalidArgument("rate matrix must be square");
    validate_initial(initial_, rates_.rows());
    for (const double v : rates_.values()) {
        if (!std::isfinite(v)) throw InvalidArgument("non-finite transition rate");
        if (v < 0.0) throw InvalidArgument("negative transition rate");
    }
    exit_rates_.resize(rates_.rows());
    for (std::size_t s = 0; s < rates_.rows(); ++s) {
        const auto cols = rates_.row_columns(s);
        const auto vals = rates_.row_values(s);
        double r = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] != s) r += vals[k];
        }
        exit_rates_[s] = r;
        max_exit_rate_ = std::max(max_exit_rate_, r);
    }
}

double Ctmc::max_exit_rate(const std::vector<bool>& absorbing) const {
    ARCADE_ASSERT(absorbing.size() == state_count(), "absorbing mask size mismatch");
    double max_rate = 0.0;
    for (std::size_t s = 0; s < state_count(); ++s) {
        if (!absorbing[s]) max_rate = std::max(max_rate, exit_rates_[s]);
    }
    return max_rate;
}

void Ctmc::set_label(const std::string& name, std::vector<bool> states) {
    ARCADE_ASSERT(states.size() == state_count(), "label size mismatch for '" + name + "'");
    labels_[name] = std::move(states);
}

bool Ctmc::has_label(const std::string& name) const { return labels_.count(name) > 0; }

const std::vector<bool>& Ctmc::label(const std::string& name) const {
    const auto it = labels_.find(name);
    if (it == labels_.end()) throw ModelError("unknown label '" + name + "'");
    return it->second;
}

std::vector<std::string> Ctmc::label_names() const {
    std::vector<std::string> names;
    names.reserve(labels_.size());
    for (const auto& [k, v] : labels_) names.push_back(k);
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<double> Ctmc::point_distribution(std::size_t n, std::size_t state) {
    ARCADE_ASSERT(state < n, "point distribution state out of range");
    std::vector<double> d(n, 0.0);
    d[state] = 1.0;
    return d;
}

Ctmc Ctmc::make_absorbing(const std::vector<bool>& absorbing) const {
    ARCADE_ASSERT(absorbing.size() == state_count(), "absorbing mask size mismatch");
    linalg::CsrBuilder b(state_count(), state_count());
    for (std::size_t s = 0; s < state_count(); ++s) {
        if (absorbing[s]) continue;
        const auto cols = rates_.row_columns(s);
        const auto vals = rates_.row_values(s);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            b.add(s, cols[k], vals[k]);
        }
    }
    Ctmc out(b.build(), initial_);
    out.labels_ = labels_;
    return out;
}

void Ctmc::set_initial_distribution(std::vector<double> initial) {
    validate_initial(initial, state_count());
    initial_ = std::move(initial);
}

linalg::UniformisedMatrix uniformise(const Ctmc& chain, const std::vector<bool>* absorbing) {
    const double max_rate =
        absorbing != nullptr ? chain.max_exit_rate(*absorbing) : chain.max_exit_rate();
    return linalg::uniformise(chain.rates(), linalg::uniformisation_rate(max_rate), absorbing);
}

}  // namespace arcade::ctmc
