#include "arcade/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "arcade/fault_tree.hpp"
#include "engine/explore.hpp"
#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::core {

namespace {

/// Entries of `levels` >= x, within the library-wide 1e-9 tolerance.
std::vector<bool> at_least(std::span<const double> levels, double x) {
    std::vector<bool> bits(levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) bits[i] = levels[i] >= x - 1e-9;
    return bits;
}

using State = std::vector<std::int16_t>;

/// How a repair unit behaves for encoding purposes.
enum class RuKind { None, Dedicated, Queue };

struct RuPlan {
    RuKind kind = RuKind::None;
    std::size_t crews = 1;
    bool preemptive = false;
    double idle_cost_rate = 1.0;
    /// classes in priority order (best first); members in component-index order
    std::vector<std::vector<std::size_t>> classes;
    std::vector<std::size_t> components;  // all covered components
};

struct CompPlan {
    std::size_t ru = SIZE_MAX;     // repair unit index (SIZE_MAX = unrepairable)
    std::size_t cls = SIZE_MAX;    // class within the RU (queue RUs only)
    std::size_t phase = SIZE_MAX;  // service phase
    double frate = 0.0;
    double rrate = 0.0;
};

/// A lumped group: exchangeable components (same RU, class, phase, rates).
struct Group {
    std::size_t ru = SIZE_MAX;
    std::size_t cls = SIZE_MAX;
    std::size_t phase = SIZE_MAX;
    std::size_t size = 0;
    double frate = 0.0;
    double rrate = 0.0;
    double failed_cost_rate = 3.0;
    std::vector<std::size_t> members;
};

struct Plan {
    std::vector<RuPlan> rus;
    std::vector<CompPlan> comps;
    std::vector<Group> groups;                       // lumped encoding
    std::vector<std::vector<std::size_t>> ru_groups; // groups per RU, class-major order
};

double policy_key(const RepairUnit& ru, const BasicComponent& c, int priority) {
    switch (ru.policy) {
        case RepairPolicy::FastestRepairFirst: return -c.repair_rate();
        case RepairPolicy::FastestFailureFirst: return -c.failure_rate();
        case RepairPolicy::Priority: return static_cast<double>(priority);
        default: return 0.0;  // FCFS: single class
    }
}

Plan make_plan(const ArcadeModel& model) {
    Plan plan;
    plan.comps.resize(model.components.size());

    for (std::size_t p = 0; p < model.phases.size(); ++p) {
        for (std::size_t idx : model.phases[p].components) {
            plan.comps[idx].phase = p;
        }
    }
    for (std::size_t c = 0; c < model.components.size(); ++c) {
        plan.comps[c].frate = model.components[c].failure_rate();
        plan.comps[c].rrate = model.components[c].repair_rate();
    }

    for (std::size_t r = 0; r < model.repair_units.size(); ++r) {
        const RepairUnit& ru = model.repair_units[r];
        RuPlan rp;
        rp.crews = ru.crews;
        rp.preemptive = ru.preemptive;
        rp.idle_cost_rate = ru.idle_cost_rate;
        rp.components = ru.components;
        std::sort(rp.components.begin(), rp.components.end());
        switch (ru.policy) {
            case RepairPolicy::None: rp.kind = RuKind::None; break;
            case RepairPolicy::Dedicated: rp.kind = RuKind::Dedicated; break;
            default: rp.kind = RuKind::Queue; break;
        }
        if (rp.kind == RuKind::Queue) {
            // group components by policy key; classes sorted best-first
            std::vector<std::pair<double, std::size_t>> keyed;
            for (std::size_t i = 0; i < ru.components.size(); ++i) {
                const std::size_t c = ru.components[i];
                const int prio =
                    ru.policy == RepairPolicy::Priority ? ru.priorities[i] : 0;
                keyed.emplace_back(policy_key(ru, model.components[c], prio), c);
            }
            std::sort(keyed.begin(), keyed.end());
            double prev_key = 0.0;
            for (std::size_t i = 0; i < keyed.size(); ++i) {
                if (i == 0 || keyed[i].first != prev_key) {
                    rp.classes.push_back({keyed[i].second});
                } else {
                    rp.classes.back().push_back(keyed[i].second);
                }
                prev_key = keyed[i].first;
            }
            // keep members in component-index order within each class
            for (auto& cls : rp.classes) std::sort(cls.begin(), cls.end());
            for (std::size_t k = 0; k < rp.classes.size(); ++k) {
                for (std::size_t c : rp.classes[k]) {
                    plan.comps[c].ru = r;
                    plan.comps[c].cls = k;
                }
            }
        } else {
            for (std::size_t c : ru.components) {
                plan.comps[c].ru = r;
                plan.comps[c].cls = 0;
            }
        }
        plan.rus.push_back(std::move(rp));
    }

    // Lumped groups: components sharing (ru, cls, phase, rates, cost).
    for (std::size_t c = 0; c < model.components.size(); ++c) {
        const CompPlan& cp = plan.comps[c];
        bool placed = false;
        for (auto& g : plan.groups) {
            if (g.ru == cp.ru && g.cls == cp.cls && g.phase == cp.phase &&
                g.frate == cp.frate && g.rrate == cp.rrate &&
                g.failed_cost_rate == model.components[c].failed_cost_rate) {
                g.members.push_back(c);
                ++g.size;
                placed = true;
                break;
            }
        }
        if (!placed) {
            Group g;
            g.ru = cp.ru;
            g.cls = cp.cls;
            g.phase = cp.phase;
            g.size = 1;
            g.frate = cp.frate;
            g.rrate = cp.rrate;
            g.failed_cost_rate = model.components[c].failed_cost_rate;
            g.members.push_back(c);
            plan.groups.push_back(std::move(g));
        }
    }
    plan.ru_groups.resize(plan.rus.size());
    for (std::size_t r = 0; r < plan.rus.size(); ++r) {
        // class-major (priority) order
        for (std::size_t k = 0; k < std::max<std::size_t>(plan.rus[r].classes.size(), 1); ++k) {
            for (std::size_t g = 0; g < plan.groups.size(); ++g) {
                if (plan.groups[g].ru == r &&
                    (plan.rus[r].kind != RuKind::Queue || plan.groups[g].cls == k)) {
                    plan.ru_groups[r].push_back(g);
                }
            }
            if (plan.rus[r].kind != RuKind::Queue) break;
        }
    }
    return plan;
}

// ---------------------------------------------------------------------------
// Individual encoding.
// Layout: [status_0 .. status_{C-1}, rank_0 .. rank_{C-1}]
//   status: 0 = up, 1 = down-waiting (or plain down), 2 = down-in-repair.
//   rank: 1-based FIFO position among waiting components of the same class.
// ---------------------------------------------------------------------------

constexpr std::int16_t kUp = 0;
constexpr std::int16_t kWaiting = 1;
constexpr std::int16_t kInRepair = 2;

class IndividualEncoder {
public:
    IndividualEncoder(const ArcadeModel& model, const Plan& plan)
        : model_(model), plan_(plan), n_(model.components.size()) {}

    [[nodiscard]] State initial() const { return State(2 * n_, 0); }

    /// Bit-packing ranges: per-component status in [0,2] and FIFO rank in
    /// [0, class size] (always 0 for dedicated/unrepaired components).
    [[nodiscard]] std::vector<engine::FieldSpec> layout() const {
        std::vector<engine::FieldSpec> fields(2 * n_, engine::FieldSpec{0, 0});
        for (std::size_t c = 0; c < n_; ++c) {
            fields[c] = engine::FieldSpec{0, 2};
            const std::size_t ru = plan_.comps[c].ru;
            if (ru != SIZE_MAX && plan_.rus[ru].kind == RuKind::Queue) {
                const auto& cls = plan_.rus[ru].classes[plan_.comps[c].cls];
                fields[n_ + c] =
                    engine::FieldSpec{0, static_cast<std::int64_t>(cls.size())};
            }
        }
        return fields;
    }

    [[nodiscard]] std::int16_t status(const State& s, std::size_t c) const { return s[c]; }
    [[nodiscard]] std::int16_t rank(const State& s, std::size_t c) const { return s[n_ + c]; }

    /// The tracked in-repair component of a queue RU, or SIZE_MAX.
    [[nodiscard]] std::size_t tracked(const State& s, std::size_t ru) const {
        for (std::size_t c : plan_.rus[ru].components) {
            if (s[c] == kInRepair) return c;
        }
        return SIZE_MAX;
    }

    [[nodiscard]] std::size_t waiting_in_class(const State& s, std::size_t ru,
                                               std::size_t cls) const {
        std::size_t n = 0;
        for (std::size_t c : plan_.rus[ru].classes[cls]) {
            if (s[c] == kWaiting) ++n;
        }
        return n;
    }

    /// Per-thread buffers of successors(), service() and disaster(): the
    /// successor being built and the queue scans, sized once and reused, so
    /// generating a successor allocates nothing.
    struct Scratch {
        State next;
        std::vector<std::size_t> picked;
        std::vector<std::pair<std::int16_t, std::size_t>> waiting;
        std::vector<std::size_t> up_per_phase;
    };

    [[nodiscard]] Scratch scratch() const {
        Scratch scratch;
        scratch.next.reserve(2 * n_);
        scratch.picked.reserve(n_);
        scratch.waiting.reserve(n_);
        scratch.up_per_phase.reserve(model_.phases.size());
        return scratch;
    }

    /// Waiting components served by derived crews, best-first, up to `k`,
    /// into scratch.picked.
    void top_waiting(const State& s, std::size_t ru, std::size_t k, Scratch& scratch) const {
        std::vector<std::size_t>& out = scratch.picked;
        out.clear();
        if (k == 0) return;
        for (const auto& cls : plan_.rus[ru].classes) {
            // members sorted by rank
            auto& waiting = scratch.waiting;
            waiting.clear();
            for (std::size_t c : cls) {
                if (s[c] == kWaiting) waiting.emplace_back(rank(s, c), c);
            }
            std::sort(waiting.begin(), waiting.end());
            for (const auto& [rk, c] : waiting) {
                out.push_back(c);
                if (out.size() == k) return;
            }
        }
    }

    /// Removes `c` from its class queue: ranks above it shift down.
    void remove_from_queue(State& s, std::size_t c) const {
        const std::size_t ru = plan_.comps[c].ru;
        const std::size_t cls = plan_.comps[c].cls;
        const std::int16_t r = s[n_ + c];
        for (std::size_t m : plan_.rus[ru].classes[cls]) {
            if (s[m] == kWaiting && s[n_ + m] > r) --s[n_ + m];
        }
        s[n_ + c] = 0;
    }

    void append_to_queue(State& s, std::size_t c) const {
        const std::size_t ru = plan_.comps[c].ru;
        const std::size_t cls = plan_.comps[c].cls;
        s[c] = kWaiting;
        s[n_ + c] =
            static_cast<std::int16_t>(waiting_in_class(s, ru, cls));  // includes itself now
    }

    /// Calls emit(const State& target, rate) for every outgoing transition;
    /// `target` is scratch.next, valid only during the call.
    template <typename Emit>
    void successors(const State& s, Scratch& scratch, Emit&& emit) const {
        State& t = scratch.next;
        // failures
        for (std::size_t c = 0; c < n_; ++c) {
            if (s[c] != kUp) continue;
            t = s;
            const std::size_t ru = plan_.comps[c].ru;
            if (ru == SIZE_MAX || plan_.rus[ru].kind == RuKind::None) {
                t[c] = kWaiting;
            } else if (plan_.rus[ru].kind == RuKind::Dedicated) {
                t[c] = kInRepair;
            } else if (plan_.rus[ru].preemptive) {
                append_to_queue(t, c);
            } else {
                if (tracked(s, ru) == SIZE_MAX) {
                    t[c] = kInRepair;
                } else {
                    append_to_queue(t, c);
                }
            }
            emit(t, plan_.comps[c].frate);
        }
        // repairs
        for (std::size_t r = 0; r < plan_.rus.size(); ++r) {
            const RuPlan& ru = plan_.rus[r];
            if (ru.kind == RuKind::None) continue;
            if (ru.kind == RuKind::Dedicated) {
                for (std::size_t c : ru.components) {
                    if (s[c] != kInRepair) continue;
                    t = s;
                    t[c] = kUp;
                    emit(t, plan_.comps[c].rrate);
                }
                continue;
            }
            if (ru.preemptive) {
                top_waiting(s, r, ru.crews, scratch);
                for (std::size_t c : scratch.picked) {
                    t = s;
                    remove_from_queue(t, c);
                    t[c] = kUp;
                    emit(t, plan_.comps[c].rrate);
                }
                continue;
            }
            const std::size_t tr = tracked(s, r);
            if (tr == SIZE_MAX) continue;
            {
                // crew 1 completes the tracked repair; the best waiting
                // component (if any) is promoted into the tracked slot.
                t = s;
                t[tr] = kUp;
                top_waiting(s, r, 1, scratch);
                if (!scratch.picked.empty()) {
                    const std::size_t w = scratch.picked.front();
                    remove_from_queue(t, w);
                    t[w] = kInRepair;
                }
                emit(t, plan_.comps[tr].rrate);
            }
            // derived crews 2..k complete policy-best waiting repairs
            top_waiting(s, r, ru.crews - 1, scratch);
            for (std::size_t c : scratch.picked) {
                t = s;
                remove_from_queue(t, c);
                t[c] = kUp;
                emit(t, plan_.comps[c].rrate);
            }
        }
    }

    [[nodiscard]] double service(const State& s, Scratch& scratch) const {
        std::vector<std::size_t>& up = scratch.up_per_phase;
        up.assign(model_.phases.size(), 0);
        for (std::size_t c = 0; c < n_; ++c) {
            if (s[c] == kUp) ++up[plan_.comps[c].phase];
        }
        return phase_service_level(model_, up);
    }

    [[nodiscard]] double cost_rate(const State& s) const {
        double cost = 0.0;
        for (std::size_t c = 0; c < n_; ++c) {
            if (s[c] != kUp) cost += model_.components[c].failed_cost_rate;
        }
        for (std::size_t r = 0; r < plan_.rus.size(); ++r) {
            const RuPlan& ru = plan_.rus[r];
            if (ru.kind == RuKind::None) continue;
            std::size_t down = 0;
            for (std::size_t c : ru.components) {
                if (s[c] != kUp) ++down;
            }
            const std::size_t crews =
                ru.kind == RuKind::Dedicated ? ru.components.size() : ru.crews;
            const std::size_t busy = std::min(crews, down);
            cost += static_cast<double>(crews - busy) * ru.idle_cost_rate;
        }
        return cost;
    }

    /// Canonical post-disaster state (see CompiledModel::disaster_state).
    [[nodiscard]] State disaster(const Disaster& d) const {
        ARCADE_ASSERT(d.failed_per_phase.size() == model_.phases.size(),
                      "disaster phase arity mismatch");
        State s = initial();
        std::vector<std::size_t> failed;
        for (std::size_t p = 0; p < model_.phases.size(); ++p) {
            const auto& phase = model_.phases[p];
            if (d.failed_per_phase[p] > phase.components.size()) {
                throw ModelError("disaster '" + d.name + "' fails more components than phase '" +
                                 phase.name + "' has");
            }
            for (std::size_t i = 0; i < d.failed_per_phase[p]; ++i) {
                failed.push_back(phase.components[i]);
            }
        }
        std::sort(failed.begin(), failed.end());
        // First pass: everything waiting in index order.
        for (std::size_t c : failed) {
            const std::size_t ru = plan_.comps[c].ru;
            if (ru == SIZE_MAX || plan_.rus[ru].kind == RuKind::None) {
                s[c] = kWaiting;
            } else if (plan_.rus[ru].kind == RuKind::Dedicated) {
                s[c] = kInRepair;
            } else {
                append_to_queue(s, c);
            }
        }
        // Second pass: promote the policy-best waiting member of every
        // non-preemptive queue RU into the tracked slot.
        Scratch scratch;
        for (std::size_t r = 0; r < plan_.rus.size(); ++r) {
            if (plan_.rus[r].kind != RuKind::Queue || plan_.rus[r].preemptive) continue;
            top_waiting(s, r, 1, scratch);
            if (!scratch.picked.empty()) {
                const std::size_t best = scratch.picked.front();
                remove_from_queue(s, best);
                s[best] = kInRepair;
            }
        }
        return s;
    }

private:
    const ArcadeModel& model_;
    const Plan& plan_;
    std::size_t n_;
};

// ---------------------------------------------------------------------------
// Lumped encoding.
// Layout: [wait_0 .. wait_{G-1}, tracked_0 .. tracked_{R-1}]
//   wait_g: waiting (or plain down) members of group g.
//   tracked_r: 1 + group index of the tracked in-repair component of RU r,
//              0 when idle (only non-preemptive queue RUs use this).
// ---------------------------------------------------------------------------

class LumpedEncoder {
public:
    LumpedEncoder(const ArcadeModel& model, const Plan& plan)
        : model_(model), plan_(plan), g_(plan.groups.size()), r_(plan.rus.size()) {
        // Lumping soundness: within a queue RU class, FCFS tie-breaking
        // between *different* groups is not representable.
        for (std::size_t r = 0; r < plan_.rus.size(); ++r) {
            if (plan_.rus[r].kind != RuKind::Queue) continue;
            for (std::size_t k = 0; k < plan_.rus[r].classes.size(); ++k) {
                std::size_t groups_in_class = 0;
                for (const auto& g : plan_.groups) {
                    if (g.ru == r && g.cls == k) ++groups_in_class;
                }
                if (groups_in_class > 1) {
                    throw ModelError(
                        "lumped encoding: repair class with equal rates spans "
                        "non-exchangeable components; use the individual encoding");
                }
            }
        }
    }

    [[nodiscard]] State initial() const { return State(g_ + r_, 0); }

    /// Bit-packing ranges: waiting counters in [0, group size]; tracked slot
    /// in [0, G] for non-preemptive queue RUs, constant 0 otherwise.
    [[nodiscard]] std::vector<engine::FieldSpec> layout() const {
        std::vector<engine::FieldSpec> fields(g_ + r_, engine::FieldSpec{0, 0});
        for (std::size_t g = 0; g < g_; ++g) {
            fields[g] = engine::FieldSpec{0, static_cast<std::int64_t>(plan_.groups[g].size)};
        }
        for (std::size_t r = 0; r < r_; ++r) {
            if (plan_.rus[r].kind == RuKind::Queue && !plan_.rus[r].preemptive) {
                fields[g_ + r] = engine::FieldSpec{0, static_cast<std::int64_t>(g_)};
            }
        }
        return fields;
    }

    [[nodiscard]] std::int16_t wait(const State& s, std::size_t g) const { return s[g]; }
    [[nodiscard]] std::size_t tracked_group(const State& s, std::size_t r) const {
        return s[g_ + r] == 0 ? SIZE_MAX : static_cast<std::size_t>(s[g_ + r] - 1);
    }

    [[nodiscard]] std::size_t down_of_group(const State& s, std::size_t g) const {
        std::size_t down = static_cast<std::size_t>(s[g]);
        const std::size_t r = plan_.groups[g].ru;
        if (r != SIZE_MAX && plan_.rus[r].kind == RuKind::Queue && !plan_.rus[r].preemptive &&
            tracked_group(s, r) == g) {
            ++down;
        }
        return down;
    }

    /// Per-thread buffers of successors(), service() and disaster(); see
    /// IndividualEncoder::Scratch.
    struct Scratch {
        State next;
        std::vector<std::pair<std::size_t, std::size_t>> served;  // (group, count)
        std::vector<std::size_t> up_per_phase;
    };

    [[nodiscard]] Scratch scratch() const {
        Scratch scratch;
        scratch.next.reserve(g_ + r_);
        scratch.served.reserve(g_);
        scratch.up_per_phase.reserve(model_.phases.size());
        return scratch;
    }

    /// Served waiting members per group for derived crews, up to k total,
    /// into scratch.served.
    void served_waiting(const State& s, std::size_t r, std::size_t k, Scratch& scratch) const {
        auto& out = scratch.served;
        out.clear();
        if (k == 0) return;
        std::size_t left = k;
        for (std::size_t g : plan_.ru_groups[r]) {
            const std::size_t w = static_cast<std::size_t>(s[g]);
            if (w == 0) continue;
            const std::size_t take = std::min(left, w);
            out.emplace_back(g, take);
            left -= take;
            if (left == 0) break;
        }
    }

    /// Calls emit(const State& target, rate) for every outgoing transition;
    /// `target` is scratch.next, valid only during the call.
    template <typename Emit>
    void successors(const State& s, Scratch& scratch, Emit&& emit) const {
        State& t = scratch.next;
        // failures
        for (std::size_t g = 0; g < g_; ++g) {
            const Group& group = plan_.groups[g];
            const std::size_t down = down_of_group(s, g);
            const std::size_t up = group.size - down;
            if (up == 0) continue;
            const double rate = static_cast<double>(up) * group.frate;
            t = s;
            const std::size_t r = group.ru;
            if (r != SIZE_MAX && plan_.rus[r].kind == RuKind::Queue &&
                !plan_.rus[r].preemptive && tracked_group(s, r) == SIZE_MAX) {
                t[g_ + r] = static_cast<std::int16_t>(g + 1);
            } else {
                ++t[g];
            }
            emit(t, rate);
        }
        // repairs
        for (std::size_t r = 0; r < r_; ++r) {
            const RuPlan& ru = plan_.rus[r];
            if (ru.kind == RuKind::None) continue;
            if (ru.kind == RuKind::Dedicated) {
                for (std::size_t g : plan_.ru_groups[r]) {
                    const std::size_t down = static_cast<std::size_t>(s[g]);
                    if (down == 0) continue;
                    t = s;
                    --t[g];
                    emit(t, static_cast<double>(down) * plan_.groups[g].rrate);
                }
                continue;
            }
            if (ru.preemptive) {
                served_waiting(s, r, ru.crews, scratch);
                for (const auto& [g, count] : scratch.served) {
                    t = s;
                    --t[g];
                    emit(t, static_cast<double>(count) * plan_.groups[g].rrate);
                }
                continue;
            }
            const std::size_t tg = tracked_group(s, r);
            if (tg == SIZE_MAX) continue;
            {
                // crew 1 completes; promote the best waiting group
                t = s;
                served_waiting(s, r, 1, scratch);
                if (scratch.served.empty()) {
                    t[g_ + r] = 0;
                } else {
                    const std::size_t next = scratch.served.front().first;
                    t[g_ + r] = static_cast<std::int16_t>(next + 1);
                    --t[next];
                }
                emit(t, plan_.groups[tg].rrate);
            }
            served_waiting(s, r, ru.crews - 1, scratch);
            for (const auto& [g, count] : scratch.served) {
                t = s;
                --t[g];
                emit(t, static_cast<double>(count) * plan_.groups[g].rrate);
            }
        }
    }

    [[nodiscard]] double service(const State& s, Scratch& scratch) const {
        std::vector<std::size_t>& up = scratch.up_per_phase;
        up.resize(model_.phases.size());
        for (std::size_t p = 0; p < model_.phases.size(); ++p) {
            up[p] = model_.phases[p].components.size();
        }
        for (std::size_t g = 0; g < g_; ++g) {
            up[plan_.groups[g].phase] -= down_of_group(s, g);
        }
        return phase_service_level(model_, up);
    }

    [[nodiscard]] double cost_rate(const State& s) const {
        double cost = 0.0;
        for (std::size_t g = 0; g < g_; ++g) {
            cost += static_cast<double>(down_of_group(s, g)) * plan_.groups[g].failed_cost_rate;
        }
        for (std::size_t r = 0; r < r_; ++r) {
            const RuPlan& ru = plan_.rus[r];
            if (ru.kind == RuKind::None) continue;
            std::size_t down = 0;
            for (std::size_t g : plan_.ru_groups[r]) down += down_of_group(s, g);
            const std::size_t crews =
                ru.kind == RuKind::Dedicated ? ru.components.size() : ru.crews;
            cost += static_cast<double>(crews - std::min(crews, down)) * ru.idle_cost_rate;
        }
        return cost;
    }

    [[nodiscard]] State disaster(const Disaster& d) const {
        ARCADE_ASSERT(d.failed_per_phase.size() == model_.phases.size(),
                      "disaster phase arity mismatch");
        State s = initial();
        for (std::size_t p = 0; p < model_.phases.size(); ++p) {
            std::size_t remaining = d.failed_per_phase[p];
            if (remaining > model_.phases[p].components.size()) {
                throw ModelError("disaster '" + d.name + "' fails more components than phase '" +
                                 model_.phases[p].name + "' has");
            }
            for (std::size_t g = 0; g < g_ && remaining > 0; ++g) {
                if (plan_.groups[g].phase != p) continue;
                const std::size_t take = std::min(remaining, plan_.groups[g].size);
                s[g] = static_cast<std::int16_t>(take);
                remaining -= take;
            }
            ARCADE_ASSERT(remaining == 0, "disaster allocation failed");
        }
        // promote tracked slots
        Scratch scratch;
        for (std::size_t r = 0; r < r_; ++r) {
            if (plan_.rus[r].kind != RuKind::Queue || plan_.rus[r].preemptive) continue;
            served_waiting(s, r, 1, scratch);
            if (!scratch.served.empty()) {
                const std::size_t next = scratch.served.front().first;
                s[g_ + r] = static_cast<std::int16_t>(next + 1);
                --s[next];
            }
        }
        return s;
    }

private:
    const ArcadeModel& model_;
    const Plan& plan_;
    std::size_t g_;
    std::size_t r_;
};

/// Adapts an encoder (which works on int16 vectors) to the engine's int64
/// worker interface.  One adapter per worker thread: the conversion buffer
/// and the encoder's scratch are worker-local, the encoder itself is shared
/// immutable state.
template <typename Encoder>
class EncoderWorker {
public:
    explicit EncoderWorker(const Encoder& encoder, std::size_t fields)
        : encoder_(encoder), current_(fields), scratch_(encoder.scratch()) {}

    template <typename Emit>
    void operator()(std::span<const std::int64_t> state, Emit&& emit) {
        for (std::size_t i = 0; i < current_.size(); ++i) {
            current_[i] = static_cast<std::int16_t>(state[i]);
        }
        encoder_.successors(current_, scratch_, [&](const State& target, double rate) {
            ARCADE_ASSERT(rate > 0.0, "non-positive rate emitted");
            emit(std::span<const std::int16_t>(target), rate);
        });
    }

private:
    const Encoder& encoder_;
    State current_;
    typename Encoder::Scratch scratch_;
};

/// Orbit structure of the individual encoding: every lumped group with two
/// or more members is a set of interchangeable components (same failure and
/// repair rates, same phase, same repair class), and permuting the members'
/// (status, rank) field pairs is a chain automorphism — ranks are unique
/// among waiting components of a repair class and the queue discipline
/// treats class members only by rank, so a swap relabels states without
/// changing any rate, service level or cost.  The lumped encoding's counter
/// fields carry no such permutation, so it gets no proof (null), and
/// neither does a model without two interchangeable components.
std::shared_ptr<const engine::StateSymmetry> make_state_symmetry(const ArcadeModel& model,
                                                                 const Plan& plan,
                                                                 Encoding encoding) {
    if (encoding != Encoding::Individual) return nullptr;
    const std::size_t n = model.components.size();
    std::vector<engine::SymmetryOrbit> orbits;
    for (const auto& group : plan.groups) {
        if (group.members.size() < 2) continue;
        engine::SymmetryOrbit orbit;
        for (const std::size_t c : group.members) {
            orbit.instances.push_back({c, n + c});
        }
        orbits.push_back(std::move(orbit));
    }
    if (orbits.empty()) return nullptr;
    return std::make_shared<const engine::StateSymmetry>(std::move(orbits));
}

template <typename Encoder>
CompiledModel run_compile(const ArcadeModel& model, const Plan& plan, Encoder encoder,
                          Encoding encoding, const CompileOptions& options) {
    const engine::StateLayout layout(encoder.layout());
    const State initial16 = encoder.initial();
    const std::size_t fields = initial16.size();
    std::vector<std::int64_t> initial(initial16.begin(), initial16.end());

    // ReductionPolicy::Auto explores on the orbits of the interchangeability
    // proof; under Off the full chain is explored and no proof is built.
    const std::shared_ptr<const engine::StateSymmetry> symmetry =
        options.reduction == ReductionPolicy::Auto ? make_state_symmetry(model, plan, encoding)
                                                   : nullptr;

    engine::EngineOptions engine_options;
    engine_options.max_states = options.max_states;
    engine_options.threads = options.threads;
    engine_options.symmetry = symmetry.get();
    auto explored = engine::explore_bfs(
        layout, initial, [&] { return EncoderWorker<Encoder>(encoder, fields); },
        engine_options);
    engine::StateStore store = std::move(explored.store);
    const std::size_t n = store.size();

    // Orbit accounting: the full-chain state count is the sum of orbit
    // sizes over the explored representatives (exact — the automorphism
    // group fixes the initial state, so the full reachable set is the
    // disjoint union of these orbits).  The transitions are counted too: an
    // automorphism maps each member's row onto its representative's, and a
    // full-chain row holds one entry per successor the encoder emits,
    // because every transition fails or repairs exactly one component (a
    // different one per transition), so no two coincide and none is the
    // source.
    std::size_t full_states = 0;
    std::size_t full_transitions = 0;
    if (symmetry != nullptr) {
        std::vector<std::int64_t> values(fields);
        State source(fields);
        auto scratch = encoder.scratch();
        for (std::size_t s = 0; s < n; ++s) {
            store.unpack(s, std::span<std::int64_t>(values));
            const auto orbit = static_cast<std::size_t>(symmetry->orbit_size(values));
            full_states += orbit;
            store.unpack(s, std::span<std::int16_t>(source));
            std::size_t row = 0;
            encoder.successors(source, scratch, [&](const State&, double) { ++row; });
            full_transitions += orbit * row;
        }
    }

    std::vector<double> init(n, 0.0);
    init[0] = 1.0;
    ctmc::Ctmc chain(std::move(explored.rates), std::move(init));

    std::vector<double> service(n);
    std::vector<double> cost(n);
    {
        State decoded(fields);
        auto scratch = encoder.scratch();
        for (std::size_t s = 0; s < n; ++s) {
            store.unpack(s, std::span<std::int16_t>(decoded));
            service[s] = encoder.service(decoded, scratch);
            cost[s] = encoder.cost_rate(decoded);
        }
    }

    chain.set_label("operational", at_least(service, 1.0));
    chain.set_label("down", [&] {
        std::vector<bool> bits(n);
        for (std::size_t s = 0; s < n; ++s) bits[s] = service[s] < 1.0 - 1e-9;
        return bits;
    }());
    chain.set_label("total_failure", [&] {
        std::vector<bool> bits(n);
        for (std::size_t s = 0; s < n; ++s) bits[s] = service[s] <= 1e-9;
        return bits;
    }());
    // One label per distinct positive service level (the paper's interval
    // bounds), with the exact bit vector service_at_least() computes — so
    // CSL formulas (watertree::properties) can name the paper's
    // survivability targets and reproduce the measure pipeline bit for bit.
    for (const double level : phase_service_levels(model)) {
        if (level <= 1e-9) continue;
        chain.set_label(service_label(level), at_least(service, level));
    }

    return CompiledModel(std::move(chain), std::move(service),
                         rewards::RewardStructure("cost", std::move(cost)), model,
                         std::move(store), encoding, options.reduction, symmetry,
                         full_states, full_transitions);
}

}  // namespace

CompiledModel::CompiledModel(ctmc::Ctmc chain, std::vector<double> service,
                             rewards::RewardStructure cost, ArcadeModel model,
                             engine::StateStore store, Encoding encoding,
                             ReductionPolicy reduction,
                             std::shared_ptr<const engine::StateSymmetry> state_symmetry,
                             std::size_t full_states, std::size_t full_transitions)
    : chain_(std::move(chain)),
      service_(std::move(service)),
      cost_(std::move(cost)),
      model_(std::move(model)),
      store_(std::move(store)),
      encoding_(encoding),
      reduction_(reduction),
      state_symmetry_(std::move(state_symmetry)),
      state_count_(orbit_explored() ? full_states : chain_.state_count()),
      transition_count_(orbit_explored() ? full_transitions : chain_.transition_count()) {}

std::string service_label(double level) {
    std::string label = "service>=";
    append_g17(label, level);
    return label;
}

ctmc::LumpSignature CompiledModel::lump_signature() const {
    ctmc::LumpSignature signature;
    signature.labels = chain_.label_names();
    signature.values.resize(kSignatureRows);
    signature.values[kServiceRow] = service_;
    signature.values[kCostRow] = cost_.state_rates();
    return signature;
}

const std::vector<double>& CompiledModel::block_row(const ctmc::QuotientCtmc& quotient,
                                                    SignatureRow row) const {
    ARCADE_ASSERT(quotient.original_state_count() == chain_.state_count() &&
                      quotient.values().size() == kSignatureRows,
                  "quotient is not over this model's lump signature");
    return quotient.values()[row];
}

const std::vector<double>& CompiledModel::block_service_levels(
    const ctmc::QuotientCtmc& quotient) const {
    return block_row(quotient, kServiceRow);
}

const std::vector<double>& CompiledModel::block_cost_rates(
    const ctmc::QuotientCtmc& quotient) const {
    return block_row(quotient, kCostRow);
}

std::vector<bool> CompiledModel::block_service_at_least(const ctmc::QuotientCtmc& quotient,
                                                        double x) const {
    return at_least(block_service_levels(quotient), x);
}

std::vector<double> CompiledModel::block_disaster_distribution(
    const ctmc::QuotientCtmc& quotient, const Disaster& disaster) const {
    ARCADE_ASSERT(quotient.original_state_count() == chain_.state_count(),
                  "quotient is not over this model's chain");
    return ctmc::Ctmc::point_distribution(quotient.block_count(),
                                          quotient.block_of(disaster_state(disaster)));
}

std::pair<std::shared_ptr<const ctmc::QuotientCtmc>, bool> CompiledModel::quotient()
    const {
    std::lock_guard<std::mutex> lock(*quotient_mutex_);
    if (quotient_ != nullptr) return {quotient_, false};
    quotient_ = std::make_shared<const ctmc::QuotientCtmc>(chain_, lump_signature());
    return {quotient_, true};
}

std::vector<bool> CompiledModel::service_at_least(double x) const {
    return at_least(service_, x);
}

std::vector<bool> CompiledModel::operational_states() const { return service_at_least(1.0); }

std::size_t CompiledModel::lookup(const std::vector<std::int16_t>& encoded) const {
    std::vector<std::uint64_t> packed(store_.layout().words_per_state());
    if (orbit_explored()) {
        // Only orbit representatives are interned; canonicalise first.
        std::vector<std::int64_t> values(encoded.begin(), encoded.end());
        state_symmetry_->canonicalize(values);
        store_.layout().pack(std::span<const std::int64_t>(values), packed.data());
    } else {
        store_.layout().pack(std::span<const std::int16_t>(encoded), packed.data());
    }
    const std::size_t index = store_.find(packed.data());
    if (index == SIZE_MAX) {
        throw ModelError("encoded state is not reachable in the compiled model");
    }
    return index;
}

std::size_t CompiledModel::disaster_state(const Disaster& disaster) const {
    const Plan plan = make_plan(model_);
    if (encoding_ == Encoding::Individual) {
        IndividualEncoder enc(model_, plan);
        return lookup(enc.disaster(disaster));
    }
    LumpedEncoder enc(model_, plan);
    return lookup(enc.disaster(disaster));
}

std::vector<double> CompiledModel::disaster_distribution(const Disaster& disaster) const {
    return ctmc::Ctmc::point_distribution(chain_.state_count(), disaster_state(disaster));
}

std::vector<std::int16_t> CompiledModel::encoded_state(std::size_t index) const {
    ARCADE_ASSERT(index < store_.size(), "state index out of range");
    std::vector<std::int16_t> values(store_.layout().field_count());
    store_.unpack(index, std::span<std::int16_t>(values));
    return values;
}

CompiledModel compile(const ArcadeModel& model, const CompileOptions& options) {
    model.validate();
    const Plan plan = make_plan(model);
    return options.encoding == Encoding::Individual
               ? run_compile(model, plan, IndividualEncoder(model, plan), options.encoding,
                             options)
               : run_compile(model, plan, LumpedEncoder(model, plan), options.encoding,
                             options);
}

ArcadeModel without_repair(const ArcadeModel& model) {
    ArcadeModel copy = model;
    for (auto& ru : copy.repair_units) {
        ru.policy = RepairPolicy::None;
    }
    return copy;
}

}  // namespace arcade::core
