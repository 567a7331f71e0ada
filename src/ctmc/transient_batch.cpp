#include "ctmc/transient_batch.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/kernels.hpp"
#include "numeric/fox_glynn.hpp"
#include "support/errors.hpp"

namespace arcade::ctmc {

BatchTransientEvolver::BatchTransientEvolver(const Ctmc& chain,
                                             std::span<const std::vector<double>> columns,
                                             TransientOptions options)
    : p_(uniformise(chain)), options_(options), width_(columns.size()) {
    ARCADE_ASSERT(width_ > 0, "BatchTransientEvolver: no columns");
    const std::size_t n = chain.state_count();
    for (const auto& column : columns) {
        ARCADE_ASSERT(column.size() == n, "BatchTransientEvolver: column size mismatch");
    }
    if (options_.workspace != nullptr) {
        block_ = options_.workspace->acquire(n * width_);
        scratch_a_ = options_.workspace->acquire(n * width_);
        scratch_b_ = options_.workspace->acquire(n * width_);
    } else {
        block_.assign(n * width_, 0.0);
        scratch_a_.assign(n * width_, 0.0);
        scratch_b_.assign(n * width_, 0.0);
    }
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t c = 0; c < width_; ++c) block_[s * width_ + c] = columns[c][s];
    }
}

BatchTransientEvolver::~BatchTransientEvolver() {
    if (options_.workspace != nullptr) {
        options_.workspace->release(std::move(block_));
        options_.workspace->release(std::move(scratch_a_));
        options_.workspace->release(std::move(scratch_b_));
    }
}

void BatchTransientEvolver::step(double dt) {
    if (dt <= 0.0) return;
    const double q = p_.lambda * dt;
    const auto weights = numeric::fox_glynn_cached(q, options_.epsilon);

    // Per column this is exactly TransientEvolver::step: the weight
    // accumulation is element-wise (so the interleaved layout changes
    // nothing per column) and the batch kernel is bitwise per column.
    std::vector<double>& acc = scratch_a_;
    std::vector<double>& cur = scratch_b_;
    std::fill(acc.begin(), acc.end(), 0.0);
    cur = block_;

    for (std::size_t k = 0;; ++k) {
        const double w = weights->weight(k);
        if (w != 0.0) {
            for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += w * cur[i];
        }
        if (k == weights->right) break;
        linalg::uniformised_multiply_left_batch(p_, cur, block_, width_);
        std::swap(cur, block_);
    }
    block_ = acc;
}

void BatchTransientEvolver::advance_to(double t) {
    if (t < time_) {
        if (t < time_ - TransientEvolver::kTimeTolerance) {
            throw InvalidArgument(
                "BatchTransientEvolver::advance_to: t=" + std::to_string(t) +
                " is before the current time " + std::to_string(time_) +
                "; grid times must be non-decreasing");
        }
        return;
    }
    const double dt = t - time_;
    if (dt > 0.0) step(dt);
    time_ = t;
}

void BatchTransientEvolver::extract_column(std::size_t c, std::span<double> out) const {
    ARCADE_ASSERT(c < width_, "BatchTransientEvolver: column out of range");
    ARCADE_ASSERT(out.size() == p_.rows(),
                  "BatchTransientEvolver: output size mismatch");
    for (std::size_t s = 0; s < out.size(); ++s) out[s] = block_[s * width_ + c];
}

std::vector<double> BatchTransientEvolver::column(std::size_t c) const {
    std::vector<double> out(p_.rows(), 0.0);
    extract_column(c, out);
    return out;
}

}  // namespace arcade::ctmc
