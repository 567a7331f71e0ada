#include "engine/symmetry.hpp"

#include <utility>

#include "support/errors.hpp"

namespace arcade::engine {

StateSymmetry::StateSymmetry(std::vector<SymmetryOrbit> orbits) {
    for (auto& orbit : orbits) {
        if (orbit.instances.size() < 2) continue;  // nothing to permute
        const std::size_t arity = orbit.instances.front().size();
        if (arity == 0) continue;
        for (const auto& instance : orbit.instances) {
            if (instance.size() != arity) {
                throw ModelError("symmetry orbit instances must share one arity");
            }
        }
        Orbit compact;
        compact.instances = orbit.instances.size();
        compact.arity = arity;
        compact.offset = fields_.size();
        for (auto& instance : orbit.instances) {
            fields_.insert(fields_.end(), instance.begin(), instance.end());
        }
        orbits_.push_back(compact);
    }
}

void StateSymmetry::canonicalize(std::span<std::int64_t> values) const noexcept {
    for (const Orbit& orbit : orbits_) {
        const std::size_t* fields = fields_.data() + orbit.offset;
        const std::size_t arity = orbit.arity;
        // Insertion sort of instance tuples by lexicographic value order;
        // orbit sizes are component counts (small), so this beats any
        // allocation-based sort on the per-emission hot path.
        for (std::size_t i = 1; i < orbit.instances; ++i) {
            for (std::size_t j = i; j > 0; --j) {
                const std::size_t* lo = fields + (j - 1) * arity;
                const std::size_t* hi = fields + j * arity;
                int cmp = 0;
                for (std::size_t t = 0; t < arity; ++t) {
                    const std::int64_t a = values[lo[t]];
                    const std::int64_t b = values[hi[t]];
                    if (a != b) {
                        cmp = a < b ? -1 : 1;
                        break;
                    }
                }
                if (cmp <= 0) break;
                for (std::size_t t = 0; t < arity; ++t) {
                    std::swap(values[lo[t]], values[hi[t]]);
                }
            }
        }
    }
}

double StateSymmetry::orbit_size(std::span<const std::int64_t> values) const noexcept {
    double total = 1.0;
    for (const Orbit& orbit : orbits_) {
        const std::size_t* fields = fields_.data() + orbit.offset;
        const std::size_t arity = orbit.arity;
        // k! / prod(run-length!) over the (sorted) instance tuples.  On a
        // canonical state equal tuples are adjacent; tolerate non-canonical
        // input by comparing each instance against every earlier one.
        double numerator = 1.0;
        for (std::size_t i = 1; i < orbit.instances; ++i) {
            numerator *= static_cast<double>(i + 1);
        }
        double denominator = 1.0;
        for (std::size_t i = 0; i < orbit.instances; ++i) {
            // multiplicity of instance i's tuple among instances 0..i
            std::size_t run = 1;
            for (std::size_t j = 0; j < i; ++j) {
                const std::size_t* a = fields + i * arity;
                const std::size_t* b = fields + j * arity;
                bool equal = true;
                for (std::size_t t = 0; t < arity; ++t) {
                    if (values[a[t]] != values[b[t]]) {
                        equal = false;
                        break;
                    }
                }
                if (equal) ++run;
            }
            denominator *= static_cast<double>(run);
        }
        total *= numerator / denominator;
    }
    return total;
}

}  // namespace arcade::engine
