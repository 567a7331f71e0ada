// Test-local abstraction from the individual encoding to the lumped one,
// written from the encodings' documented layouts rather than the compiler's
// code, so tests can map every full-chain state of an Off compile to the
// state of an individual model that ReductionPolicy::Auto explored on the
// lumped encoding.
//
//   individual: [status_0 .. status_{C-1}, rank_0 .. rank_{C-1}]
//               status 0 = up, 1 = waiting (or plain down), 2 = in repair
//   lumped:     [wait_0 .. wait_{G-1}, tracked_0 .. tracked_{R-1}]
//
// A group is a set of interchangeable components: same repair unit, phase,
// failure and repair rates, failed-cost rate and (under a Priority policy)
// priority, numbered in first-occurrence order over component indices.
// wait_g counts the group's down members, less the one a non-preemptive
// queue tracks in repair; tracked_r is 1 + the group of that member, 0 when
// the unit is idle or tracks nothing.
#ifndef ARCADE_TESTS_LUMPED_COUNTERS_HPP
#define ARCADE_TESTS_LUMPED_COUNTERS_HPP

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "arcade/compiler.hpp"

namespace arcade::testing {

inline std::vector<std::int16_t> lumped_counters(const core::ArcadeModel& model,
                                                 const std::vector<std::int16_t>& individual) {
    const std::size_t n = model.components.size();
    std::vector<std::size_t> unit(n, SIZE_MAX);
    std::vector<int> priority(n, 0);
    std::vector<std::size_t> phase(n, SIZE_MAX);
    for (std::size_t r = 0; r < model.repair_units.size(); ++r) {
        const auto& ru = model.repair_units[r];
        for (std::size_t i = 0; i < ru.components.size(); ++i) {
            unit[ru.components[i]] = r;
            if (ru.policy == core::RepairPolicy::Priority) priority[ru.components[i]] = ru.priorities[i];
        }
    }
    for (std::size_t p = 0; p < model.phases.size(); ++p) {
        for (const std::size_t c : model.phases[p].components) phase[c] = p;
    }
    const auto key = [&](std::size_t c) {
        const auto& comp = model.components[c];
        return std::make_tuple(unit[c], phase[c], comp.failure_rate(), comp.repair_rate(),
                               comp.failed_cost_rate, priority[c]);
    };
    std::vector<std::size_t> group(n);
    std::vector<std::size_t> first_member;
    for (std::size_t c = 0; c < n; ++c) {
        std::size_t g = 0;
        while (g < first_member.size() && key(first_member[g]) != key(c)) ++g;
        if (g == first_member.size()) first_member.push_back(c);
        group[c] = g;
    }
    const auto tracks = [&](std::size_t r) {
        const auto& ru = model.repair_units[r];
        return ru.policy != core::RepairPolicy::None &&
               ru.policy != core::RepairPolicy::Dedicated && !ru.preemptive;
    };

    const std::size_t groups = first_member.size();
    std::vector<std::int16_t> lumped(groups + model.repair_units.size(), 0);
    for (std::size_t c = 0; c < n; ++c) {
        if (individual[c] == 0) continue;
        if (individual[c] == 2 && unit[c] != SIZE_MAX && tracks(unit[c])) {
            lumped[groups + unit[c]] = static_cast<std::int16_t>(group[c] + 1);
        } else {
            ++lumped[group[c]];
        }
    }
    return lumped;
}

/// Index in `automatic` (an individual model explored on the lumped
/// encoding) of the state standing for state `s` of `full`, the same model
/// explored in full; SIZE_MAX when it has none.
inline std::size_t lumped_state_of(const core::CompiledModel& automatic,
                                   const core::CompiledModel& full, std::size_t s) {
    const auto counters = lumped_counters(full.model(), full.encoded_state(s));
    const auto& layout = automatic.state_store().layout();
    std::vector<std::uint64_t> packed(layout.words_per_state());
    layout.pack(std::span<const std::int16_t>(counters), packed.data());
    return automatic.state_store().find(packed.data());
}

}  // namespace arcade::testing

#endif  // ARCADE_TESTS_LUMPED_COUNTERS_HPP
