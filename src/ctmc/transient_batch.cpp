#include "ctmc/transient_batch.hpp"

#include <utility>

#include "linalg/kernels.hpp"
#include "support/errors.hpp"

namespace arcade::ctmc {

BatchTransientEvolver::BatchTransientEvolver(const Ctmc& chain,
                                             std::span<const std::vector<double>> columns,
                                             TransientOptions options)
    : p_(uniformise(chain)),
      width_(columns.size()),
      block_(options.workspace, chain.state_count() * width_),
      scratch_(options.workspace, chain.state_count() * width_) {
    ARCADE_ASSERT(width_ > 0, "BatchTransientEvolver: no columns");
    const std::size_t n = chain.state_count();
    std::vector<double>& block = block_.get();
    for (std::size_t c = 0; c < width_; ++c) {
        ARCADE_ASSERT(columns[c].size() == n, "BatchTransientEvolver: column size mismatch");
        for (std::size_t s = 0; s < n; ++s) block[s * width_ + c] = columns[c][s];
    }
}

void BatchTransientEvolver::power_step() {
    linalg::uniformised_multiply_left_batch(p_, block_.get(), scratch_.get(), width_);
    std::swap(block_.get(), scratch_.get());
}

void BatchTransientEvolver::extract_column(std::size_t c, std::span<double> out) const {
    ARCADE_ASSERT(c < width_, "BatchTransientEvolver: column out of range");
    ARCADE_ASSERT(out.size() == p_.rows(), "BatchTransientEvolver: output size mismatch");
    const std::vector<double>& block = block_.get();
    for (std::size_t s = 0; s < out.size(); ++s) out[s] = block[s * width_ + c];
}

std::vector<std::vector<double>> functional_series_batch(
    const Ctmc& chain, std::span<const std::vector<double>> columns,
    std::span<const double> times, SeriesForm form, const DistributionFunctional& f,
    const TransientOptions& options) {
    BatchTransientEvolver evolver(chain, columns, options);
    const SeriesGrid grid(evolver.lambda(), times, options.epsilon);

    // s[c][k] = f(column c of initial · P^k), exactly the sequence
    // functional_series reads off that column alone.
    std::vector<std::vector<double>> s(columns.size());
    for (auto& seq : s) seq.reserve(grid.steps() + 1);
    engine::ScratchVector column_scratch(options.workspace, chain.state_count());
    std::vector<double>& column = column_scratch.get();
    for (std::size_t k = 0;; ++k) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            evolver.extract_column(c, column);
            s[c].push_back(f(column));
        }
        if (k == grid.steps()) break;
        evolver.power_step();
    }

    std::vector<std::vector<double>> out;
    out.reserve(columns.size());
    for (const auto& seq : s) out.push_back(grid.combine(seq, form));
    return out;
}

}  // namespace arcade::ctmc
