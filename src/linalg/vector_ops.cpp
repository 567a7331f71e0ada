#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "support/errors.hpp"

namespace arcade::linalg {

double linf_distance(std::span<const double> a, std::span<const double> b) {
    ARCADE_ASSERT(a.size() == b.size(), "linf_distance size mismatch");
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

double relative_distance(std::span<const double> a, std::span<const double> b) {
    ARCADE_ASSERT(a.size() == b.size(), "relative_distance size mismatch");
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double scale = std::max(std::abs(a[i]), 1e-300);
        m = std::max(m, std::abs(a[i] - b[i]) / scale);
    }
    return m;
}

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
