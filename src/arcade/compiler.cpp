#include "arcade/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>

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
/// A state as the encoders read it: explore_bfs decodes each source into
/// int16_t fields.
using StateView = std::span<const std::int16_t>;

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
    std::size_t group = SIZE_MAX;  // lumped group
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
        CompPlan& cp = plan.comps[c];
        for (std::size_t g = 0; g < plan.groups.size(); ++g) {
            Group& group = plan.groups[g];
            if (group.ru == cp.ru && group.cls == cp.cls && group.phase == cp.phase &&
                group.frate == cp.frate && group.rrate == cp.rrate &&
                group.failed_cost_rate == model.components[c].failed_cost_rate) {
                ++group.size;
                cp.group = g;
                break;
            }
        }
        if (cp.group == SIZE_MAX) {
            cp.group = plan.groups.size();
            Group g;
            g.ru = cp.ru;
            g.cls = cp.cls;
            g.phase = cp.phase;
            g.size = 1;
            g.frate = cp.frate;
            g.rrate = cp.rrate;
            g.failed_cost_rate = model.components[c].failed_cost_rate;
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
        : model_(model), plan_(plan), n_(model.components.size()) {
        // Number the queue classes RU by RU in priority order and give each
        // a run of queue positions, one per member.
        class_of_.assign(n_, SIZE_MAX);
        ru_classes_.assign(plan.rus.size() + 1, 0);
        for (std::size_t r = 0; r < plan.rus.size(); ++r) {
            ru_classes_[r] = class_begin_.size();
            if (plan.rus[r].kind != RuKind::Queue) continue;
            for (const auto& cls : plan.rus[r].classes) {
                for (std::size_t c : cls) class_of_[c] = class_begin_.size();
                class_begin_.push_back(queue_size_);
                queue_size_ += cls.size();
            }
        }
        ru_classes_.back() = class_begin_.size();
    }

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

    /// What field i of layout() holds, for error messages.
    [[nodiscard]] std::string field_name(std::size_t i) const {
        return (i < n_ ? "status of component '" : "FIFO rank of component '") +
               model_.components[i % n_].name + "'";
    }

    /// Caller-owned buffers of successors(), rewards() and disaster(),
    /// sized once and reused, so expanding a state allocates nothing: the
    /// successor being built, the queues of the state being expanded, the
    /// picks read off them and the per-phase and per-RU counts.
    struct Scratch {
        State next;
        std::vector<std::size_t> tracked;  // per RU: in-repair component or SIZE_MAX
        std::vector<std::size_t> waiting;  // per queue class: waiting members
        std::vector<std::size_t> queue;    // per class run: waiting members by rank
        std::vector<std::size_t> picked;
        std::vector<std::size_t> up_per_phase;
        std::vector<std::size_t> down_per_ru;
    };

    [[nodiscard]] Scratch scratch() const {
        Scratch scratch;
        scratch.next.reserve(2 * n_);
        scratch.tracked.resize(plan_.rus.size());
        scratch.waiting.resize(class_begin_.size());
        scratch.queue.resize(queue_size_);
        scratch.picked.reserve(n_);
        scratch.up_per_phase.resize(model_.phases.size());
        scratch.down_per_ru.resize(plan_.rus.size());
        return scratch;
    }

    /// Reads the queue RUs of `s` into scratch in one pass over the
    /// components: each RU's tracked (first in-repair) component and each
    /// class's waiting members ordered by their FIFO rank, which runs
    /// 1..waiting within a class.
    void index_queues(StateView s, Scratch& scratch) const {
        std::fill(scratch.tracked.begin(), scratch.tracked.end(), SIZE_MAX);
        std::fill(scratch.waiting.begin(), scratch.waiting.end(), 0);
        for (std::size_t c = 0; c < n_; ++c) {
            const std::size_t k = class_of_[c];
            if (k == SIZE_MAX) continue;
            if (s[c] == kWaiting) {
                scratch.queue[class_begin_[k] + static_cast<std::size_t>(s[n_ + c]) - 1] = c;
                ++scratch.waiting[k];
            } else if (s[c] == kInRepair) {
                std::size_t& tracked = scratch.tracked[plan_.comps[c].ru];
                if (tracked == SIZE_MAX) tracked = c;
            }
        }
    }

    /// Waiting components of RU `ru` served by derived crews, best-first,
    /// up to `k`, into scratch.picked (after index_queues).
    void top_waiting(std::size_t ru, std::size_t k, Scratch& scratch) const {
        std::vector<std::size_t>& out = scratch.picked;
        out.clear();
        for (std::size_t cls = ru_classes_[ru]; cls < ru_classes_[ru + 1]; ++cls) {
            const std::size_t* queue = scratch.queue.data() + class_begin_[cls];
            for (std::size_t i = 0; i < scratch.waiting[cls] && out.size() < k; ++i) {
                out.push_back(queue[i]);
            }
        }
    }

    /// Removes waiting `c` from its class queue in `t`, a copy of the
    /// indexed state: ranks above it shift down.
    void remove_from_queue(State& t, std::size_t c, const Scratch& scratch) const {
        const std::size_t cls = class_of_[c];
        const std::size_t* queue = scratch.queue.data() + class_begin_[cls];
        for (std::size_t i = static_cast<std::size_t>(t[n_ + c]); i < scratch.waiting[cls]; ++i) {
            --t[n_ + queue[i]];
        }
        t[n_ + c] = 0;
    }

    /// Appends up component `c` to its class queue in `t`, a copy of the
    /// indexed state.
    void append_to_queue(State& t, std::size_t c, const Scratch& scratch) const {
        t[c] = kWaiting;
        t[n_ + c] = static_cast<std::int16_t>(scratch.waiting[class_of_[c]] + 1);
    }

    /// Calls emit(const State& target, rate) for every outgoing transition;
    /// `target` is scratch.next, valid only during the call.
    template <typename Emit>
    void successors(StateView s, Scratch& scratch, Emit&& emit) const {
        index_queues(s, scratch);
        State& t = scratch.next;
        // failures
        for (std::size_t c = 0; c < n_; ++c) {
            if (s[c] != kUp) continue;
            t.assign(s.begin(), s.end());
            const std::size_t ru = plan_.comps[c].ru;
            if (ru == SIZE_MAX || plan_.rus[ru].kind == RuKind::None) {
                t[c] = kWaiting;
            } else if (plan_.rus[ru].kind == RuKind::Dedicated) {
                t[c] = kInRepair;
            } else if (!plan_.rus[ru].preemptive && scratch.tracked[ru] == SIZE_MAX) {
                t[c] = kInRepair;
            } else {
                append_to_queue(t, c, scratch);
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
                    t.assign(s.begin(), s.end());
                    t[c] = kUp;
                    emit(t, plan_.comps[c].rrate);
                }
                continue;
            }
            if (ru.preemptive) {
                top_waiting(r, ru.crews, scratch);
                for (std::size_t c : scratch.picked) {
                    t.assign(s.begin(), s.end());
                    remove_from_queue(t, c, scratch);
                    t[c] = kUp;
                    emit(t, plan_.comps[c].rrate);
                }
                continue;
            }
            const std::size_t tr = scratch.tracked[r];
            if (tr == SIZE_MAX) continue;
            {
                // crew 1 completes the tracked repair; the best waiting
                // component (if any) is promoted into the tracked slot.
                t.assign(s.begin(), s.end());
                t[tr] = kUp;
                top_waiting(r, 1, scratch);
                if (!scratch.picked.empty()) {
                    const std::size_t w = scratch.picked.front();
                    remove_from_queue(t, w, scratch);
                    t[w] = kInRepair;
                }
                emit(t, plan_.comps[tr].rrate);
            }
            // derived crews 2..k complete policy-best waiting repairs
            top_waiting(r, ru.crews - 1, scratch);
            for (std::size_t c : scratch.picked) {
                t.assign(s.begin(), s.end());
                remove_from_queue(t, c, scratch);
                t[c] = kUp;
                emit(t, plan_.comps[c].rrate);
            }
        }
    }

    /// {service level, cost rate} of `s`, from one pass over its
    /// components.  The cost adds each failed component's rate in index
    /// order, then each repair unit's idle crews.
    [[nodiscard]] std::pair<double, double> rewards(StateView s, Scratch& scratch) const {
        std::vector<std::size_t>& up = scratch.up_per_phase;
        std::vector<std::size_t>& down = scratch.down_per_ru;
        std::fill(up.begin(), up.end(), 0);
        std::fill(down.begin(), down.end(), 0);
        double cost = 0.0;
        for (std::size_t c = 0; c < n_; ++c) {
            const CompPlan& cp = plan_.comps[c];
            if (s[c] == kUp) {
                ++up[cp.phase];
                continue;
            }
            cost += model_.components[c].failed_cost_rate;
            if (cp.ru != SIZE_MAX) ++down[cp.ru];
        }
        for (std::size_t r = 0; r < plan_.rus.size(); ++r) {
            const RuPlan& ru = plan_.rus[r];
            if (ru.kind == RuKind::None) continue;
            const std::size_t crews =
                ru.kind == RuKind::Dedicated ? ru.components.size() : ru.crews;
            const std::size_t busy = std::min(crews, down[r]);
            cost += static_cast<double>(crews - busy) * ru.idle_cost_rate;
        }
        return {phase_service_level(model_, up), cost};
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
        Scratch scratch = this->scratch();
        for (std::size_t c : failed) {
            const std::size_t ru = plan_.comps[c].ru;
            if (ru == SIZE_MAX || plan_.rus[ru].kind == RuKind::None) {
                s[c] = kWaiting;
            } else if (plan_.rus[ru].kind == RuKind::Dedicated) {
                s[c] = kInRepair;
            } else {
                index_queues(s, scratch);
                append_to_queue(s, c, scratch);
            }
        }
        // Second pass: promote the policy-best waiting member of every
        // non-preemptive queue RU into the tracked slot.
        for (std::size_t r = 0; r < plan_.rus.size(); ++r) {
            if (plan_.rus[r].kind != RuKind::Queue || plan_.rus[r].preemptive) continue;
            index_queues(s, scratch);
            top_waiting(r, 1, scratch);
            if (!scratch.picked.empty()) {
                const std::size_t best = scratch.picked.front();
                remove_from_queue(s, best, scratch);
                s[best] = kInRepair;
            }
        }
        return s;
    }

private:
    const ArcadeModel& model_;
    const Plan& plan_;
    std::size_t n_;
    std::vector<std::size_t> class_of_;     // per component: queue class or SIZE_MAX
    std::vector<std::size_t> class_begin_;  // per queue class: first queue position
    std::vector<std::size_t> ru_classes_;   // RU r's classes: [ru_classes_[r], [r + 1])
    std::size_t queue_size_ = 0;
};

/// Lumping soundness: within a queue RU class, FCFS tie-breaking between
/// *different* groups is not representable, so every queue class must hold
/// one group.  Then the lumped encoding is an exact lumping of the
/// individual one: each lumped state stands for one orbit of individual
/// states under permutations of every group's members.
bool lumpable(const Plan& plan) {
    for (std::size_t r = 0; r < plan.rus.size(); ++r) {
        if (plan.rus[r].kind != RuKind::Queue) continue;
        for (std::size_t k = 0; k < plan.rus[r].classes.size(); ++k) {
            const auto in_class = std::count_if(
                plan.groups.begin(), plan.groups.end(),
                [&](const Group& g) { return g.ru == r && g.cls == k; });
            if (in_class > 1) return false;
        }
    }
    return true;
}

/// a·b, or ModelError when it does not fit a size_t.
std::size_t checked_mul(std::size_t a, std::size_t b) {
    std::size_t product = 0;
    if (__builtin_mul_overflow(a, b, &product)) {
        throw ModelError("individual chain size exceeds " + std::to_string(SIZE_MAX));
    }
    return product;
}

std::size_t checked_add(std::size_t a, std::size_t b) {
    std::size_t sum = 0;
    if (__builtin_add_overflow(a, b, &sum)) {
        throw ModelError("individual chain size exceeds " + std::to_string(SIZE_MAX));
    }
    return sum;
}

/// n!/(n−k)!: the ways to give k distinct tuples to k of n members.
std::size_t falling_factorial(std::size_t n, std::size_t k) {
    std::size_t out = 1;
    for (std::size_t i = 0; i < k; ++i) out = checked_mul(out, n - i);
    return out;
}

/// C(n, k): the ways to pick k of n members that all get one tuple.  Each
/// step C(n, i+1) = C(n, i)·(n−i)/(i+1) divides out gcd(C(n, i), i+1)
/// first, so only a result past SIZE_MAX throws.
std::size_t binomial(std::size_t n, std::size_t k) {
    k = std::min(k, n - k);
    std::size_t out = 1;
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t g = std::gcd(out, i + 1);
        out = checked_mul(out / g, (n - i) / ((i + 1) / g));
    }
    return out;
}

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
        if (!lumpable(plan)) {
            throw ModelError(
                "lumped encoding: repair class with equal rates spans "
                "non-exchangeable components; use the individual encoding");
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

    /// What field i of layout() holds, for error messages.
    [[nodiscard]] std::string field_name(std::size_t i) const {
        return i < g_ ? "waiting counter of a group in phase '" +
                            model_.phases[plan_.groups[i].phase].name + "'"
                      : "tracked-group slot of repair unit '" +
                            model_.repair_units[i - g_].name + "'";
    }

    [[nodiscard]] std::int16_t wait(StateView s, std::size_t g) const { return s[g]; }
    [[nodiscard]] std::size_t tracked_group(StateView s, std::size_t r) const {
        return s[g_ + r] == 0 ? SIZE_MAX : static_cast<std::size_t>(s[g_ + r] - 1);
    }

    [[nodiscard]] std::size_t down_of_group(StateView s, std::size_t g) const {
        std::size_t down = static_cast<std::size_t>(s[g]);
        const std::size_t r = plan_.groups[g].ru;
        if (r != SIZE_MAX && plan_.rus[r].kind == RuKind::Queue && !plan_.rus[r].preemptive &&
            tracked_group(s, r) == g) {
            ++down;
        }
        return down;
    }

    /// Caller-owned buffers of successors(), rewards() and disaster(); see
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
    void served_waiting(StateView s, std::size_t r, std::size_t k, Scratch& scratch) const {
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
    void successors(StateView s, Scratch& scratch, Emit&& emit) const {
        State& t = scratch.next;
        // failures
        for (std::size_t g = 0; g < g_; ++g) {
            const Group& group = plan_.groups[g];
            const std::size_t down = down_of_group(s, g);
            const std::size_t up = group.size - down;
            if (up == 0) continue;
            const double rate = static_cast<double>(up) * group.frate;
            t.assign(s.begin(), s.end());
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
                    t.assign(s.begin(), s.end());
                    --t[g];
                    emit(t, static_cast<double>(down) * plan_.groups[g].rrate);
                }
                continue;
            }
            if (ru.preemptive) {
                served_waiting(s, r, ru.crews, scratch);
                for (const auto& [g, count] : scratch.served) {
                    t.assign(s.begin(), s.end());
                    --t[g];
                    emit(t, static_cast<double>(count) * plan_.groups[g].rrate);
                }
                continue;
            }
            const std::size_t tg = tracked_group(s, r);
            if (tg == SIZE_MAX) continue;
            {
                // crew 1 completes; promote the best waiting group
                t.assign(s.begin(), s.end());
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
                t.assign(s.begin(), s.end());
                --t[g];
                emit(t, static_cast<double>(count) * plan_.groups[g].rrate);
            }
        }
    }

    /// The individual-encoding states and transitions lumped state `s`
    /// stands for: {orbit size, orbit size × individual row length}.  The
    /// orbit is the product over groups of n!/(n−down)! for a queue group,
    /// whose down members all hold distinct (status, rank) tuples, and of
    /// C(n, down) otherwise.  An individual row holds one failure per up
    /// component plus the repairs in progress — each transition fails or
    /// repairs a different component, so no two coincide.  Throws
    /// ModelError past SIZE_MAX.
    [[nodiscard]] std::pair<std::size_t, std::size_t> individual_sizes(StateView s) const {
        std::size_t orbit = 1;
        std::size_t row = 0;
        for (std::size_t g = 0; g < g_; ++g) {
            const Group& group = plan_.groups[g];
            const std::size_t down = down_of_group(s, g);
            row += group.size - down;
            const bool queue = group.ru != SIZE_MAX && plan_.rus[group.ru].kind == RuKind::Queue;
            orbit = checked_mul(orbit, queue ? falling_factorial(group.size, down)
                                             : binomial(group.size, down));
        }
        for (std::size_t r = 0; r < r_; ++r) {
            const RuPlan& ru = plan_.rus[r];
            std::size_t waiting = 0;
            for (std::size_t g : plan_.ru_groups[r]) waiting += static_cast<std::size_t>(s[g]);
            if (ru.kind == RuKind::Dedicated) {
                row += waiting;
            } else if (ru.kind == RuKind::Queue && ru.preemptive) {
                row += std::min(ru.crews, waiting);
            } else if (ru.kind == RuKind::Queue && tracked_group(s, r) != SIZE_MAX) {
                row += 1 + std::min(ru.crews - 1, waiting);
            }
        }
        return {orbit, checked_mul(orbit, row)};
    }

    /// {service level, cost rate} of `s`.
    [[nodiscard]] std::pair<double, double> rewards(StateView s, Scratch& scratch) const {
        std::vector<std::size_t>& up = scratch.up_per_phase;
        up.resize(model_.phases.size());
        for (std::size_t p = 0; p < model_.phases.size(); ++p) {
            up[p] = model_.phases[p].components.size();
        }
        for (std::size_t g = 0; g < g_; ++g) {
            up[plan_.groups[g].phase] -= down_of_group(s, g);
        }
        return {phase_service_level(model_, up), cost_rate(s)};
    }

    [[nodiscard]] double cost_rate(StateView s) const {
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
        // The components IndividualEncoder::disaster fails, counted per
        // group: the first failed_per_phase[p] listed in phase p.
        State s = initial();
        for (std::size_t p = 0; p < model_.phases.size(); ++p) {
            const auto& phase = model_.phases[p];
            if (d.failed_per_phase[p] > phase.components.size()) {
                throw ModelError("disaster '" + d.name + "' fails more components than phase '" +
                                 phase.name + "' has");
            }
            for (std::size_t i = 0; i < d.failed_per_phase[p]; ++i) {
                ++s[plan_.comps[phase.components[i]].group];
            }
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

/// Explores `model` with `encoder`.  A lumped encoder compiling an
/// individual model (ReductionPolicy::Auto) reports the individual chain's
/// sizes, summed over its states in closed form.
template <typename Encoder>
CompiledModel run_compile(const ArcadeModel& model, Encoder encoder, Encoding explored_with,
                          const CompileOptions& options) {
    // The encoders hold every field in an int16_t, so a field whose range
    // passes INT16_MAX (a group counter, FIFO rank or tracked-group slot
    // g + 1) would wrap mid-exploration.
    const auto specs = encoder.layout();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].high > std::numeric_limits<std::int16_t>::max()) {
            throw ModelError("compile: " + encoder.field_name(i) + " ranges up to " +
                             std::to_string(specs[i].high) +
                             ", past the encoders' int16 limit 32767");
        }
    }
    const engine::StateLayout layout(specs);
    const bool lumps_individual = explored_with != options.encoding;

    // explore_bfs expands each state once, in index order, so the walk also
    // fills the per-state vectors.  A size overflow is raised after the
    // exploration, where an explosion it meets still wins.
    std::vector<double> service;
    std::vector<double> cost;
    std::size_t state_count = 0;
    std::size_t transition_count = 0;
    std::exception_ptr size_error;
    auto scratch = encoder.scratch();
    auto explored = engine::explore_bfs<std::int16_t>(
        layout, encoder.initial(),
        [&](StateView state, auto&& emit) {
            const auto [service_level, cost_rate] = encoder.rewards(state, scratch);
            service.push_back(service_level);
            cost.push_back(cost_rate);
            if constexpr (std::is_same_v<Encoder, LumpedEncoder>) {
                if (lumps_individual && !size_error) {
                    try {
                        const auto [states, transitions] = encoder.individual_sizes(state);
                        state_count = checked_add(state_count, states);
                        transition_count = checked_add(transition_count, transitions);
                    } catch (const ModelError&) {
                        size_error = std::current_exception();
                    }
                }
            }
            encoder.successors(state, scratch, [&](const State& target, double rate) {
                ARCADE_ASSERT(rate > 0.0, "non-positive rate emitted");
                emit(StateView(target), rate);
            });
        },
        engine::EngineOptions{.max_states = options.max_states});
    if (size_error) std::rethrow_exception(size_error);
    engine::StateStore store = std::move(explored.store);
    const std::size_t n = store.size();
    if (!lumps_individual) {
        state_count = n;
        transition_count = explored.rates.nonzeros();
    }

    std::vector<double> init(n, 0.0);
    init[0] = 1.0;
    ctmc::Ctmc chain(std::move(explored.rates), std::move(init));

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
                         std::move(store), options.encoding, options.reduction, explored_with,
                         state_count, transition_count);
}

}  // namespace

CompiledModel::CompiledModel(ctmc::Ctmc chain, std::vector<double> service,
                             rewards::RewardStructure cost, ArcadeModel model,
                             engine::StateStore store, Encoding encoding,
                             ReductionPolicy reduction, Encoding explored_with,
                             std::size_t state_count, std::size_t transition_count)
    : chain_(std::move(chain)),
      service_(std::move(service)),
      cost_(std::move(cost)),
      model_(std::move(model)),
      store_(std::move(store)),
      encoding_(encoding),
      reduction_(reduction),
      explored_with_(explored_with),
      state_count_(state_count),
      transition_count_(transition_count) {}

std::string service_label(double level) {
    std::string label = "service>=";
    append_g17(label, level);
    return label;
}

ctmc::LumpSignature CompiledModel::lump_signature() const {
    ctmc::LumpSignature signature;
    signature.labels = chain_.label_names();
    signature.values = {service_, cost_.state_rates()};
    return signature;
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
    store_.layout().pack(std::span<const std::int16_t>(encoded), packed.data());
    const std::size_t index = store_.find(packed.data());
    if (index == SIZE_MAX) {
        throw ModelError("encoded state is not reachable in the compiled model");
    }
    return index;
}

std::size_t CompiledModel::disaster_state(const Disaster& disaster) const {
    const Plan plan = make_plan(model_);
    if (explored_with_ == Encoding::Individual) {
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
    // Auto explores an individual model on its lumped encoding whenever that
    // is an exact lumping of it; otherwise the full chain, as under Off.
    if (options.encoding == Encoding::Individual &&
        (options.reduction == ReductionPolicy::Off || !lumpable(plan))) {
        return run_compile(model, IndividualEncoder(model, plan), Encoding::Individual, options);
    }
    return run_compile(model, LumpedEncoder(model, plan), Encoding::Lumped, options);
}

ArcadeModel without_repair(const ArcadeModel& model) {
    ArcadeModel copy = model;
    for (auto& ru : copy.repair_units) {
        ru.policy = RepairPolicy::None;
    }
    return copy;
}

}  // namespace arcade::core
