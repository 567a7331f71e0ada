// On-the-fly symmetry reduction over the packed state layout.
//
// A StateSymmetry describes orbits of interchangeable *instances*: each
// instance is the same ordered tuple of field indices into a StateLayout
// (e.g. one pump's (status, rank) pair), and any permutation of the
// instances inside one orbit is an automorphism of the chain — swapping two
// identical pumps relabels states without changing rates, labels or
// rewards.  canonicalize() maps a state to its orbit representative by
// sorting the instances' value tuples lexicographically; exploring only
// representatives (explore_bfs canonicalises every emitted target before
// interning, EngineOptions::symmetry) makes the explored chain the
// symmetry quotient, with per-orbit rates accumulated by the CSR builder's
// duplicate-coalescing.  The quotient of a chain under a group of
// automorphisms is an exact ordinary lumping, so every measure computed on
// it equals the full-chain value, and the lumping layer
// (graph::coarsest_lumping) composes on top: symmetry first, splitter-queue
// refinement on the residual.  core::compile explores on the orbits under
// ReductionPolicy::Auto.
//
// Because the automorphism group fixes the (canonical) initial state, the
// reachable set of the full chain is the disjoint union of the orbits of
// the explored representatives — so the full-chain state count is
// recoverable exactly, without ever materialising the full chain, as the
// sum of orbit sizes (orbit_size / full_state_count).
#ifndef ARCADE_ENGINE_SYMMETRY_HPP
#define ARCADE_ENGINE_SYMMETRY_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace arcade::engine {

/// One orbit of interchangeable instances.  `instances[i]` lists the field
/// indices (into the StateLayout the symmetry was built for) holding
/// instance i's sub-vector; every instance has the same arity, and the
/// field tuples are disjoint.  Any permutation of the instances must be an
/// automorphism of the chain — the builder (make_state_symmetry in
/// arcade/compiler.cpp) is responsible for proving that.
struct SymmetryOrbit {
    std::vector<std::vector<std::size_t>> instances;
};

/// A set of disjoint orbits over one StateLayout, with the canonicalisation
/// kernel explore_bfs runs per emitted target.  Immutable after
/// construction and safe to share across exploration threads.
class StateSymmetry {
public:
    StateSymmetry() = default;
    explicit StateSymmetry(std::vector<SymmetryOrbit> orbits);

    /// True when no orbit has two or more instances — canonicalisation is
    /// the identity and the quotient is the full chain.
    [[nodiscard]] bool trivial() const noexcept { return orbits_.empty(); }

    [[nodiscard]] std::size_t orbit_count() const noexcept { return orbits_.size(); }

    /// Rewrites `values` (one entry per layout field) in place to the orbit
    /// representative: within every orbit the instance tuples end up in
    /// nondecreasing lexicographic order.  Allocation-free (hot path).
    void canonicalize(std::span<std::int64_t> values) const noexcept;

    /// Size of the orbit of `values` under the full symmetric groups of the
    /// orbits: the product over orbits of  k! / prod(multiplicity!)  where
    /// the multiplicities count identical instance tuples.  Returned as a
    /// double — orbit sizes at scaled component counts overflow 64-bit
    /// integers long before they overflow a double's 53-bit mantissa
    /// matters for reporting.
    [[nodiscard]] double orbit_size(std::span<const std::int64_t> values) const noexcept;

private:
    // Flattened per-orbit data: fields_ stores each orbit's instances
    // back-to-back, instance-major (instances * arity indices per orbit).
    struct Orbit {
        std::size_t instances = 0;
        std::size_t arity = 0;
        std::size_t offset = 0;  ///< into fields_
    };
    std::vector<Orbit> orbits_;
    std::vector<std::size_t> fields_;
};

}  // namespace arcade::engine

#endif  // ARCADE_ENGINE_SYMMETRY_HPP
