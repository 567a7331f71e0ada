// Dense vector helpers for probability vectors.
//
// One plain loop per helper, each accumulating in ascending index order;
// NeumaierSum accumulates in the order its caller adds.
#ifndef ARCADE_LINALG_VECTOR_OPS_HPP
#define ARCADE_LINALG_VECTOR_OPS_HPP

#include <cmath>
#include <span>
#include <vector>

namespace arcade::linalg {

/// sum of entries.
[[nodiscard]] double sum(std::span<const double> v);

/// Neumaier-compensated running sum: a total with a separate compensation
/// term that absorbs the rounding error of each add(), folded into the
/// total once by value().  The Fox–Glynn weight normalisation is built on
/// this.
class NeumaierSum {
public:
    void add(double x) noexcept {
        const double t = total_ + x;
        comp_ += std::abs(total_) >= std::abs(x) ? (total_ - t) + x : (x - t) + total_;
        total_ = t;
    }
    [[nodiscard]] double value() const noexcept { return total_ + comp_; }

private:
    double total_ = 0.0;
    double comp_ = 0.0;
};

/// dot product.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Scales v so entries sum to 1.  Throws ModelError when the sum is ~0.
void normalize(std::span<double> v);

}  // namespace arcade::linalg

#endif  // ARCADE_LINALG_VECTOR_OPS_HPP
