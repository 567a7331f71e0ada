#include "engine/session.hpp"

#include "ctmc/steady_state.hpp"
#include "graph/lumping.hpp"
#include "linalg/vector_ops.hpp"
#include "logic/csl_compiled.hpp"
#include "support/errors.hpp"

namespace arcade::engine {

namespace {

/// FNV-1a accumulator over heterogeneous fields (word mixing shared with
/// the reduction layer's signature keys — graph/lumping.hpp).
class Fingerprinter {
public:
    explicit Fingerprinter(std::uint64_t seed) {
        mix(static_cast<std::uint64_t>(seed ^ 0x2545f4914f6cdd1dull));
    }
    void mix(std::uint64_t v) { h_ = graph::fnv1a_mix(h_, v); }
    void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
    void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
    void mix(double v) { mix(graph::double_bits(v)); }
    void mix(const std::string& s) {
        for (const char c : s) {
            h_ = graph::fnv1a_mix(h_, static_cast<unsigned char>(c));
        }
        mix(static_cast<std::uint64_t>(s.size()));
    }
    template <typename T>
    void mix_all(const std::vector<T>& xs) {
        mix(xs.size());
        for (const auto& x : xs) mix(static_cast<std::uint64_t>(x));
    }

    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = graph::kFnv1aBasis;
};

std::uint64_t options_key(std::uint64_t model_fp, std::uint64_t encoding,
                          std::size_t max_states, std::uint64_t reduction) {
    Fingerprinter fp(0);
    fp.mix(model_fp);
    fp.mix(encoding);
    fp.mix(max_states);
    fp.mix(reduction);
    return fp.value();
}

}  // namespace

std::uint64_t fingerprint(const core::ArcadeModel& model, std::uint64_t seed) {
    Fingerprinter fp(seed);
    fp.mix(model.name);
    fp.mix(model.components.size());
    for (const auto& c : model.components) {
        fp.mix(c.name);
        fp.mix(c.mttf);
        fp.mix(c.mttr);
        fp.mix(c.failed_cost_rate);
    }
    fp.mix(model.repair_units.size());
    for (const auto& ru : model.repair_units) {
        fp.mix(ru.name);
        fp.mix(static_cast<std::uint64_t>(ru.policy));
        fp.mix(ru.crews);
        fp.mix(ru.preemptive);
        fp.mix(ru.idle_cost_rate);
        fp.mix_all(ru.components);
        fp.mix_all(ru.priorities);
    }
    fp.mix(model.spare_units.size());
    for (const auto& su : model.spare_units) {
        fp.mix(su.name);
        fp.mix_all(su.components);
        fp.mix(su.required);
    }
    fp.mix(model.phases.size());
    for (const auto& ph : model.phases) {
        fp.mix(ph.name);
        fp.mix_all(ph.components);
        fp.mix(ph.required);
        fp.mix(ph.spare_managed);
    }
    return fp.value();
}

AnalysisSession::CompiledPtr AnalysisSession::compile(const core::ArcadeModel& model,
                                                      const core::CompileOptions& options) {
    const std::uint64_t key = options_key(
        fingerprint(model), static_cast<std::uint64_t>(options.encoding), options.max_states,
        static_cast<std::uint64_t>(options.reduction));
    const std::uint64_t check = options_key(fingerprint(model, /*seed=*/1),
                                            static_cast<std::uint64_t>(options.encoding),
                                            options.max_states,
                                            static_cast<std::uint64_t>(options.reduction));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = compiled_.find(key);
        if (it != compiled_.end() && it->second.check == check) {
            ++stats_.compile_hits;
            return it->second.value;
        }
    }
    // Compile outside the lock: exploration may take seconds and other
    // threads should not serialise behind it.
    auto fresh = std::make_shared<const core::CompiledModel>(core::compile(model, options));
    std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = compiled_[key];
    if (entry.value != nullptr && entry.check == check) {
        ++stats_.compile_hits;  // lost a benign race; reuse the winner
        return entry.value;
    }
    entry = {check, std::move(fresh)};
    ++stats_.compile_misses;
    return entry.value;
}

std::shared_ptr<const ctmc::QuotientCtmc> AnalysisSession::quotient(
    const CompiledPtr& model) {
    return model->quotient().first;
}

std::shared_ptr<const logic::CheckResult> AnalysisSession::check_property(
    const CompiledPtr& model, const logic::StateFormula& formula, double epsilon) {
    ARCADE_ASSERT(model != nullptr, "check_property of a null model");
    // Key = (model fingerprint + compile shape, formula fingerprint,
    // epsilon); like the compile cache, a second-stream fingerprint is
    // stored and verified so a collision cannot return the wrong result.
    const auto key_of = [&](std::uint64_t seed) {
        Fingerprinter fp(seed);
        fp.mix(fingerprint(model->model(), seed));
        fp.mix(static_cast<std::uint64_t>(model->encoding()));
        fp.mix(static_cast<std::uint64_t>(model->reduction()));
        fp.mix(logic::fingerprint(formula, seed));
        fp.mix(epsilon);
        return fp.value();
    };
    const std::uint64_t key = key_of(0);
    const std::uint64_t check = key_of(1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = properties_.find(key);
        if (it != properties_.end() && it->second.check == check) {
            ++stats_.property_hits;
            return it->second.result;
        }
    }
    // Evaluate outside the lock: the checker re-enters the session for the
    // cached steady-state solve.
    logic::CheckerOptions options;
    options.epsilon = epsilon;
    auto fresh = std::make_shared<const logic::CheckResult>(
        logic::check(*this, model, formula, options));
    std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = properties_[key];
    if (entry.result != nullptr && entry.check == check) {
        ++stats_.property_hits;  // lost a benign race; reuse the winner
        return entry.result;
    }
    entry = {check, model, std::move(fresh)};
    ++stats_.property_misses;
    return entry.result;
}

std::shared_ptr<const logic::CheckResult> AnalysisSession::check_property(
    const CompiledPtr& model, const std::string& formula, double epsilon) {
    return check_property(model, *logic::parse_csl(formula), epsilon);
}

std::shared_ptr<const std::vector<double>> AnalysisSession::steady_state(
    const CompiledPtr& model) {
    ARCADE_ASSERT(model != nullptr, "steady_state of a null model");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = steady_.find(model.get());
        if (it != steady_.end()) {
            ++stats_.steady_state_hits;
            return it->second.pi;
        }
    }
    auto pi = std::make_shared<const std::vector<double>>(ctmc::steady_state(model->chain()));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = steady_.emplace(model.get(), SteadyEntry{model, std::move(pi)});
    if (inserted) {
        ++stats_.steady_state_misses;
    } else {
        ++stats_.steady_state_hits;
    }
    return it->second.pi;
}

double AnalysisSession::availability(const CompiledPtr& model) {
    // Sums the mass of operational_states() without building the mask.
    const auto pi = steady_state(model);
    const auto& service = model->service_levels();
    double p = 0.0;
    for (std::size_t s = 0; s < pi->size(); ++s) {
        if (service[s] >= 1.0 - 1e-9) p += (*pi)[s];
    }
    return p;
}

double AnalysisSession::steady_state_cost(const CompiledPtr& model) {
    const auto pi = steady_state(model);
    return linalg::dot(*pi, model->cost_reward().state_rates());
}

SessionStats AnalysisSession::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void AnalysisSession::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    compiled_.clear();
    steady_.clear();
    properties_.clear();
    stats_ = SessionStats{};
}

AnalysisSession& AnalysisSession::global() {
    static AnalysisSession session;
    return session;
}

}  // namespace arcade::engine
