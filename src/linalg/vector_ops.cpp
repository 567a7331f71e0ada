#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "support/errors.hpp"

namespace arcade::linalg {

double sum(std::span<const double> v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
}

double dot(std::span<const double> a, std::span<const double> b) {
    ARCADE_ASSERT(a.size() == b.size(), "dot size mismatch");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

void normalize(std::span<double> v) {
    const double s = sum(v);
    if (!(s > 0.0)) throw ModelError("cannot normalize vector with non-positive sum");
    for (double& x : v) x /= s;
}

}  // namespace arcade::linalg
