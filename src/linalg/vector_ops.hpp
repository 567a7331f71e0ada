// Dense vector helpers for probability vectors.
//
// One plain loop per helper, each accumulating in ascending index order.
#ifndef ARCADE_LINALG_VECTOR_OPS_HPP
#define ARCADE_LINALG_VECTOR_OPS_HPP

#include <span>
#include <vector>

namespace arcade::linalg {

/// max_i |a_i - b_i| (Chebyshev distance).
[[nodiscard]] double linf_distance(std::span<const double> a, std::span<const double> b);

/// max_i |a_i - b_i| / max(|a_i|, floor) — PRISM-style relative criterion.
[[nodiscard]] double relative_distance(std::span<const double> a, std::span<const double> b);

/// sum of entries.
[[nodiscard]] double sum(std::span<const double> v);

/// Neumaier-compensated sum of entries: a running total with a separate
/// compensation term that absorbs the rounding error of each add, folded
/// into the total once at the end.  The Fox–Glynn weight normalisation is
/// built on this.
[[nodiscard]] double neumaier_sum(std::span<const double> v);

/// dot product.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Scales v so entries sum to 1.  Throws ModelError when the sum is ~0.
void normalize(std::span<double> v);

}  // namespace arcade::linalg

#endif  // ARCADE_LINALG_VECTOR_OPS_HPP
