// arcade_perfbench — the repository benchmark's measuring program.
//
//   arcade_perfbench --workload paper|individual|reduced --seed N
//                    --seconds S --trace 0|1 --threads T --out DIR
//                    --oracle-values FILE [--expected FILE] [--dump-values FILE]
//   arcade_perfbench --workload W --seed N --threads T --oracle FILE
//
// One process runs one pass at a time (a closed loop) until --seconds have
// elapsed and at least three samples of each timing exist.  The untraced run
// (--trace 0) reports the end-to-end metrics: pass_s, setup_s, solve_s
// (medians) and peak_rss_mb (the peak through the first cold pass, what a
// one-shot process peaks at).  The traced run (--trace 1) drives every layer
// itself, wraps each call in a span, writes the spans as Chrome trace-event
// JSON and reports the per-layer metrics; the PRISM text, module-explorer
// and raw-chain CSL layers, which no grid workload reaches, are timed by a
// probe on the line-2 models.
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark result.  Seed 0 is the paper's parameters; other seeds
// scale every MTTF/MTTR by seed-drawn factors, which changes no state count.
// Every cell is checked against the stored expected output (when
// --expected is given) and against an independent oracle, computed by a
// separate --oracle process so it never counts towards the measured memory.
// The probe's queries are checked against their own oracle.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "arcade/modules_compiler.hpp"
#include "bench_common.hpp"
#include "engine/session.hpp"
#include "linalg/kernels.hpp"
#include "logic/csl.hpp"
#include "modules/explorer.hpp"
#include "numeric/fox_glynn.hpp"
#include "numeric/linear_solvers.hpp"
#include "prism/prism_parser.hpp"
#include "prism/prism_writer.hpp"
#include "sweep/export.hpp"
#include "sweep/paper.hpp"
#include "sweep/runner.hpp"
#include "trace.hpp"
#include "watertree/watertree.hpp"

namespace {

using namespace arcade;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Session = engine::AnalysisSession;
using CompiledPtr = Session::CompiledPtr;
/// Cell or query key -> its values (one per time point; one for scalars).
using Values = std::map<std::string, std::vector<double>>;

// Stated tolerance of the correctness gate: |got - want| <= kAbsTol +
// kRelTol * |want|.  The lumped, individual and quotient paths agree far
// inside it; a wrong measure or a lost time point does not.
constexpr double kAbsTol = 1e-10;
constexpr double kRelTol = 1e-9;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linearly interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Runs `task(i)` for i in [0, count) on `threads` workers (atomic ticket).
/// The first exception is rethrown after every worker joined.
void parallel_for(unsigned threads, std::size_t count,
                  const std::function<void(std::size_t, unsigned)>& task) {
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    const unsigned workers =
        static_cast<unsigned>(std::max<std::size_t>(1, std::min<std::size_t>(threads, count)));
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            for (std::size_t i = next++; i < count; i = next++) {
                try {
                    task(i, w + 1);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error) error = std::current_exception();
                }
            }
        });
    }
    for (auto& t : pool) t.join();
    if (error) std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Seed 0: the paper.  Any other seed: every MTTF and MTTR scaled by its own
/// factor drawn from [0.98, 1.02].  The range is narrow on purpose: the
/// uniformisation rate follows the fastest repair rate, so wide factors would
/// change the amount of work between seeds, not just the numbers.
watertree::Parameters seeded_parameters(std::uint64_t seed) {
    watertree::Parameters p;
    if (seed == 0) return p;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> factor(0.98, 1.02);
    for (double* x : {&p.pump_mttf, &p.pump_mttr, &p.softener_mttf, &p.softener_mttr,
                      &p.sandfilter_mttf, &p.sandfilter_mttr, &p.reservoir_mttf,
                      &p.reservoir_mttr}) {
        *x *= factor(rng);
    }
    return p;
}

struct Config {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 1;
    std::string out_dir = ".";
    std::string expected;     ///< stored expected outputs (optional)
    std::string dump_values;  ///< write the first pass's values here (optional)
    watertree::Parameters params;
};

bool is_grid_workload(const std::string& w) {
    return w == "paper" || w == "individual" || w == "reduced";
}

/// The grid workloads: sweep::paper::everything() under the seed's
/// parameters, on the lumped (paper) or individual encoding.
struct GridWorkload {
    std::string name;
    sweep::ScenarioGrid grid;
    sweep::RunnerOptions options;
    std::vector<sweep::WorkItem> items;
    std::vector<std::size_t> model_items;  ///< first item of each unique model
};

GridWorkload make_grid_workload(const std::string& name, const Config& cfg) {
    GridWorkload w;
    w.name = name;
    w.grid = sweep::paper::everything();
    w.grid.parameters = {sweep::ParameterSet{"seed-" + std::to_string(cfg.seed), cfg.params}};
    w.options.threads = cfg.threads;
    if (name != "paper") {
        w.grid.variants = {sweep::individual_variant()};
        w.options.symmetry = core::SymmetryPolicy::Off;
        w.options.reduction =
            name == "reduced" ? core::ReductionPolicy::Auto : core::ReductionPolicy::Off;
    }
    w.items = sweep::expand(w.grid);
    std::set<std::string> seen;
    for (std::size_t i = 0; i < w.items.size(); ++i) {
        if (seen.insert(w.items[i].model_key()).second) w.model_items.push_back(i);
    }
    return w;
}

std::string fmt17(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string cell_key(const sweep::WorkItem& item) {
    return "L" + std::to_string(item.line) + "|" + item.strategy + "|" +
           sweep::to_string(item.measure.kind) + "|" + sweep::to_string(item.measure.disaster) +
           "|" + fmt17(item.measure.service_level);
}

/// Whether a cell's model keeps its repair units (as the sweep runner decides).
bool with_repair(const sweep::WorkItem& item) {
    return item.variant.repair && item.measure.kind != sweep::MeasureKind::Reliability;
}

/// The model a cell is evaluated on (mirrors the sweep runner's compile).
core::ArcadeModel cell_model(const GridWorkload& w, const sweep::WorkItem& item) {
    core::ArcadeModel model = watertree::line(item.line, watertree::strategy(item.strategy),
                                              w.grid.parameters[item.parameter_index].params,
                                              item.scale.extra_pumps);
    return with_repair(item) ? model : core::without_repair(model);
}

CompiledPtr compile_cell(Session& session, const GridWorkload& w, const sweep::WorkItem& item) {
    return watertree::compile_line(session, item.line, watertree::strategy(item.strategy),
                                   item.variant.encoding,
                                   w.grid.parameters[item.parameter_index].params,
                                   with_repair(item), w.options.reduction, w.options.symmetry,
                                   item.scale.extra_pumps);
}

Values values_of(const sweep::SweepReport& report) {
    Values out;
    for (const auto& r : report.results) out[cell_key(r.item)] = r.values;
    return out;
}

// Seed-independent state counts: the seed only rescales rates, so every
// model keeps the paper's Table 1 size.  Keyed "<encoding>|L<line>|<strategy>".
const std::map<std::string, std::size_t>& expected_state_counts() {
    static const std::map<std::string, std::size_t> counts = [] {
        std::map<std::string, std::size_t> m;
        for (const std::string s : {"FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
            m["individual|L1|" + s] = 111809;
            m["individual|L2|" + s] = 8129;
            m["lumped|L1|" + s] = 449;
            m["lumped|L2|" + s] = 257;
        }
        m["individual|L1|DED"] = 2048;
        m["individual|L2|DED"] = 512;
        m["lumped|L1|DED"] = 160;
        m["lumped|L2|DED"] = 96;
        return m;
    }();
    return counts;
}

void assert_state_count(const std::string& encoding, int line, const std::string& strategy,
                        std::size_t states) {
    const std::string key = encoding + "|L" + std::to_string(line) + "|" + strategy;
    const auto it = expected_state_counts().find(key);
    if (it == expected_state_counts().end() || it->second != states) {
        throw std::runtime_error("state count of " + key + " is " + std::to_string(states) +
                                 ", expected " +
                                 (it == expected_state_counts().end()
                                      ? std::string("<unknown>")
                                      : std::to_string(it->second)));
    }
}

// ---------------------------------------------------------------------------
// Grid workloads: one cold pass, and its set-up / solve split
// ---------------------------------------------------------------------------

/// Writes the CSV and JSON export of `report` into the output directory and
/// returns the seconds it took.
double export_report(const GridWorkload& w, const sweep::SweepReport& report,
                     const Config& cfg) {
    const double t0 = now_s();
    std::ofstream csv(cfg.out_dir + "/" + w.name + ".csv");
    sweep::write_csv(report, w.grid, csv);
    std::ofstream json(cfg.out_dir + "/" + w.name + ".json");
    sweep::write_json(report, w.grid, json);
    csv.close();
    json.close();
    if (!csv || !json) throw std::runtime_error("export to " + cfg.out_dir + " failed");
    return now_s() - t0;
}

/// Builds every model the workload needs on `session` (compile per unique
/// model, plus the quotient where the workload reduces), on cfg.threads
/// workers like the runner's compile phase.
void setup_grid(Session& session, const GridWorkload& w, const Config& cfg) {
    parallel_for(cfg.threads, w.model_items.size(), [&](std::size_t i, unsigned) {
        const auto& item = w.items[w.model_items[i]];
        const auto model = compile_cell(session, w, item);
        assert_state_count(item.variant.encoding == core::Encoding::Lumped ? "lumped"
                                                                            : "individual",
                           item.line, item.strategy, model->state_count());
        if (w.options.reduction == core::ReductionPolicy::Auto) (void)session.quotient(model);
    });
}

struct PassResult {
    sweep::SweepReport report;
    double export_s = 0.0;
};

PassResult run_and_export(Session& session, const GridWorkload& w, const Config& cfg,
                          unsigned threads) {
    sweep::RunnerOptions options = w.options;
    options.threads = threads;
    PassResult out;
    out.report = sweep::SweepRunner(session, options).run(w.grid);
    out.export_s = export_report(w, out.report, cfg);
    return out;
}

// ---------------------------------------------------------------------------
// Grid workloads: the traced pass (the benchmark drives each layer itself)
// ---------------------------------------------------------------------------

core::Disaster make_disaster(sweep::DisasterKind kind, const core::CompiledModel& model) {
    switch (kind) {
        case sweep::DisasterKind::None: {
            core::Disaster d;
            d.name = "none";
            d.failed_per_phase.assign(model.model().phases.size(), 0);
            return d;
        }
        case sweep::DisasterKind::AllPumps: return watertree::disaster1(model.model());
        case sweep::DisasterKind::Mixed: return watertree::disaster2();
    }
    throw std::runtime_error("unknown disaster kind");
}

/// Span name of the measure function a cell calls.
std::string measure_span(sweep::MeasureKind kind) {
    switch (kind) {
        case sweep::MeasureKind::Availability: return "ctmc.availability";
        case sweep::MeasureKind::Survivability: return "ctmc.survivability";
        case sweep::MeasureKind::InstantaneousCost: return "ctmc.instcost";
        case sweep::MeasureKind::AccumulatedCost: return "rewards.acccost";
        default: throw std::runtime_error("measure not used by the benchmark grids");
    }
}

std::vector<double> evaluate_cell(Session& session, const CompiledPtr& model,
                                  const sweep::WorkItem& item) {
    const auto transient = core::session_transient(session);
    const auto& m = item.measure;
    switch (m.kind) {
        case sweep::MeasureKind::Availability: return {core::availability(session, model)};
        case sweep::MeasureKind::Survivability:
            return core::survivability_series(*model, make_disaster(m.disaster, *model),
                                              m.service_level, m.times, transient);
        case sweep::MeasureKind::InstantaneousCost:
            return core::instantaneous_cost_series(*model, make_disaster(m.disaster, *model),
                                                   m.times, transient);
        case sweep::MeasureKind::AccumulatedCost:
            return core::accumulated_cost_series(*model, make_disaster(m.disaster, *model),
                                                 m.times, transient);
        default: throw std::runtime_error("measure not used by the benchmark grids");
    }
}

struct TracedGridPass {
    Values values;
    double total_s = 0.0;
    std::size_t states = 0, transitions = 0;
    std::size_t states_in = 0, blocks_out = 0;  ///< quotient sizes (reduced only)
    std::size_t fg_hits = 0, fg_misses = 0;
    double unif_steps = 0.0;
    std::vector<CompiledPtr> models;  ///< per unique model, for the probes
};

/// Uniformisation steps the series cells take: per grid segment, the right
/// Fox–Glynn truncation point at the uniformisation rate of the chain the
/// solver evolves.  That is the quotient's under reduction and, for
/// survivability, the until-transformed chain whose target states absorb
/// (survivability_fused_plan builds the same chain).  Computed, not counted
/// inside the solver.
double computed_unif_steps(const CompiledPtr& model, const sweep::WorkItem& item) {
    if (!item.measure.is_series()) return 0.0;
    std::optional<core::FusedSeriesPlan> until;
    if (item.measure.kind == sweep::MeasureKind::Survivability) {
        until = core::survivability_fused_plan(*model, item.measure.service_level);
    }
    const ctmc::Ctmc& chain = until ? *until->chain
                              : model->reduction() == core::ReductionPolicy::Auto
                                  ? model->quotient().first->chain()
                                  : model->chain();
    const double lambda = std::max(chain.max_exit_rate(), 1e-12) * 1.02;
    double steps = 0.0, prev = 0.0;
    for (const double t : item.measure.times) {
        if (t > prev) {
            steps += static_cast<double>(numeric::fox_glynn(lambda * (t - prev), 1e-12).right);
        }
        prev = t;
    }
    return steps;
}

TracedGridPass traced_grid_pass(const GridWorkload& w, const Config& cfg, Tracer& tracer,
                                std::uint64_t pass_id) {
    TracedGridPass out;
    Session session;
    numeric::fox_glynn_cache_clear();
    const auto fg_before = numeric::fox_glynn_cache_stats();
    const double t0 = now_s();
    {
        ScopedSpan pass(&tracer, "pass", 0, pass_id, 0, w.name);
        const std::uint64_t root = pass.id();
        // Per unique model: lint, compile, quotient (when reducing), steady state.
        out.models.resize(w.model_items.size());
        parallel_for(cfg.threads, w.model_items.size(), [&](std::size_t i, unsigned tid) {
            const auto& item = w.items[w.model_items[i]];
            const std::string detail = "L" + std::to_string(item.line) + " " + item.strategy;
            const core::ArcadeModel model = cell_model(w, item);
            {
                ScopedSpan span(&tracer, "analysis.lint", root, pass_id, tid, detail);
                (void)analysis::lint(core::to_reactive_modules(model));
            }
            core::CompileOptions options;
            options.encoding = item.variant.encoding;
            options.reduction = w.options.reduction;
            options.symmetry = w.options.symmetry;
            options.lint = analysis::LintLevel::Off;
            {
                ScopedSpan span(&tracer, "arcade.compile", root, pass_id, tid, detail);
                out.models[i] = std::make_shared<const core::CompiledModel>(
                    core::compile(model, options));
            }
            if (w.options.reduction == core::ReductionPolicy::Auto) {
                ScopedSpan span(&tracer, "graph.lump", root, pass_id, tid, detail);
                (void)session.quotient(out.models[i]);
            }
            ScopedSpan span(&tracer, "ctmc.steady", root, pass_id, tid, detail);
            (void)session.steady_state(out.models[i]);
        });
        // Per cell: the measure function.
        std::map<std::string, std::size_t> model_of;
        for (std::size_t i = 0; i < w.model_items.size(); ++i) {
            model_of[w.items[w.model_items[i]].model_key()] = i;
        }
        sweep::SweepReport report;
        report.results.resize(w.items.size());
        std::vector<char> threw(w.items.size(), 0);
        parallel_for(cfg.threads, w.items.size(), [&](std::size_t i, unsigned tid) {
            const auto& item = w.items[i];
            const auto& model = out.models[model_of.at(item.model_key())];
            auto& r = report.results[i];
            r.item = item;
            r.model_states = model->state_count();
            r.model_transitions = model->transition_count();
            r.model_full_states = model->symmetry_full_states();
            const double c0 = now_s();
            try {
                ScopedSpan span(&tracer, measure_span(item.measure.kind), root, pass_id, tid,
                                cell_key(item));
                r.values = evaluate_cell(session, model, item);
            } catch (const std::exception& e) {
                threw[i] = 1;
                std::cerr << "cell " << cell_key(item) << " threw: " << e.what() << "\n";
            }
            r.seconds = now_s() - c0;
        });
        {
            ScopedSpan span(&tracer, "sweep.export", root, pass_id, 0, w.name);
            (void)export_report(w, report, cfg);
        }
        for (std::size_t i = 0; i < w.items.size(); ++i) {
            if (threw[i] == 0) out.values[cell_key(w.items[i])] = report.results[i].values;
        }
    }
    out.total_s = now_s() - t0;
    const auto fg_after = numeric::fox_glynn_cache_stats();
    out.fg_hits = fg_after.hits - fg_before.hits;
    out.fg_misses = fg_after.misses - fg_before.misses;
    std::map<std::string, std::size_t> model_of;
    for (std::size_t i = 0; i < w.model_items.size(); ++i) {
        const auto& m = out.models[i];
        model_of[w.items[w.model_items[i]].model_key()] = i;
        out.states += m->state_count();
        out.transitions += m->transition_count();
        if (w.options.reduction == core::ReductionPolicy::Auto) {
            out.states_in += m->state_count();
            out.blocks_out += m->quotient().first->block_count();
        }
    }
    for (const auto& item : w.items) {
        out.unif_steps += computed_unif_steps(out.models[model_of.at(item.model_key())], item);
    }
    return out;
}

// ---------------------------------------------------------------------------
// The prism probe: PRISM text of the five line-2 models
// ---------------------------------------------------------------------------

struct PrismModel {
    int line = 0;
    std::string strategy;
    std::string text;  ///< written by prism::write_prism, not timed
};

const char* const kPrismQueries[] = {
    "S=? [ \"operational\" ]",
    "R{\"cost\"}=? [ S ]",
    "P=? [ true U<=24 \"down\" ]",
};
// Reward-bounded queries run on the 512-state line-2 DED chain only: the raw
// checker runs one transient per state for them.
const char* const kRewardBoundedQueries[] = {
    "R{\"cost\"}=? [ I=4.5 ]",
    "R{\"cost\"}=? [ C<=10 ]",
};

/// The line-2 models under every paper strategy (8129 states at most; line
/// 1's 111809-state raw chains would take the probe tens of seconds).
std::vector<PrismModel> make_prism_models(const Config& cfg) {
    std::vector<PrismModel> out;
    for (const auto& s : watertree::paper_strategies()) {
        const auto system = core::to_reactive_modules(watertree::line(2, s, cfg.params));
        out.push_back(PrismModel{2, s.name, prism::write_prism(system)});
    }
    return out;
}

std::string query_key(const PrismModel& m, const std::string& query) {
    return "L" + std::to_string(m.line) + "|" + m.strategy + "|" + query;
}

std::vector<std::string> queries_for(const PrismModel& m) {
    std::vector<std::string> queries(std::begin(kPrismQueries), std::end(kPrismQueries));
    if (m.line == 2 && m.strategy == "DED") {
        queries.insert(queries.end(), std::begin(kRewardBoundedQueries),
                       std::end(kRewardBoundedQueries));
    }
    return queries;
}

std::string query_span(const std::string& query) {
    if (query.find("U<=") != std::string::npos) return "logic.until";
    if (query.find("I=") != std::string::npos || query.find("C<=") != std::string::npos) {
        return "logic.reward_bounded";
    }
    return "logic.steady";
}

struct PrismPass {
    Values values;
    std::size_t states = 0;
    std::size_t queries = 0;
};

/// One traced pass over `models`: parse, explore with the default (VM)
/// evaluator, then the CSL queries on every raw chain.
PrismPass prism_pass(const std::vector<PrismModel>& models, const Config& cfg, Tracer& tracer,
                     std::uint64_t pass_id) {
    PrismPass out;
    ScopedSpan pass(&tracer, "pass", 0, pass_id, 0, "probe-prism");
    std::vector<modules::ExploredModel> explored;
    explored.reserve(models.size());
    for (const auto& m : models) {
        const std::string detail = "L" + std::to_string(m.line) + " " + m.strategy;
        modules::ModuleSystem system;
        {
            ScopedSpan span(&tracer, "prism.parse", pass.id(), pass_id, 0, detail);
            system = prism::parse_prism(m.text);
        }
        modules::ExploreOptions options;
        options.threads = cfg.threads;
        ScopedSpan span(&tracer, "modules.explore", pass.id(), pass_id, 0, detail);
        explored.push_back(modules::explore(system, options));
        assert_state_count("individual", m.line, m.strategy, explored.back().state_count());
        out.states += explored.back().state_count();
    }
    for (std::size_t i = 0; i < models.size(); ++i) {
        const auto& m = models[i];
        logic::CheckerOptions options;
        options.reward_structures = explored[i].reward_structures;
        for (const auto& q : queries_for(m)) {
            ++out.queries;
            try {
                ScopedSpan span(&tracer, query_span(q), pass.id(), pass_id, 0, query_key(m, q));
                out.values[query_key(m, q)] = {logic::check(explored[i].chain, q, options)
                                                   .value.value()};
            } catch (const std::exception& e) {
                std::cerr << "query " << query_key(m, q) << " threw: " << e.what() << "\n";
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Correctness: stored expected outputs and independent oracles
// ---------------------------------------------------------------------------

bool close(double got, double want) {
    return std::isfinite(got) && std::fabs(got - want) <= kAbsTol + kRelTol * std::fabs(want);
}

bool matches(const std::vector<double>& got, const std::vector<double>& want) {
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!close(got[i], want[i])) return false;
    }
    return true;
}

/// Expected-output file: one line per cell, "<key>\t<v1> <v2> ...".
Values read_values(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read expected outputs " + path);
    Values out;
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos) continue;
        std::istringstream nums(line.substr(tab + 1));
        std::vector<double> v;
        for (double x = 0; nums >> x;) v.push_back(x);
        out[line.substr(0, tab)] = std::move(v);
    }
    return out;
}

void write_values(const Values& values, const std::string& path) {
    std::ofstream out(path);
    for (const auto& [key, v] : values) {
        out << key << '\t';
        for (std::size_t i = 0; i < v.size(); ++i) out << (i ? " " : "") << fmt17(v[i]);
        out << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + path);
}

/// Independent oracle for the grid workloads: the lumped encoding checks
/// the individual ones; the quotient of the individual encoding checks the
/// lumped one.
Values grid_oracle(const std::string& workload, const Config& cfg) {
    const GridWorkload w = make_grid_workload(workload == "paper" ? "reduced" : "paper", cfg);
    Session session;
    return values_of(sweep::SweepRunner(session, w.options).run(w.grid));
}

/// Independent oracle for the prism probe: the native compiler's lumped
/// model, checked through the session's quotient-aware CSL path.
Values prism_oracle(const std::vector<PrismModel>& models, const Config& cfg) {
    Values out;
    Session session;
    for (const auto& m : models) {
        const auto model = watertree::compile_line(
            session, m.line, watertree::strategy(m.strategy), core::Encoding::Lumped,
            cfg.params, true, core::ReductionPolicy::Auto, core::SymmetryPolicy::Off);
        for (const auto& q : queries_for(m)) {
            out[query_key(m, q)] = {session.check_property(model, q)->value.value()};
        }
    }
    return out;
}

/// Every evaluation of every pass is one attempt; it fails when it threw or
/// when its values miss the stored expected output or the oracle.
class Checker {
public:
    explicit Checker(std::vector<const Values*> references)
        : references_(std::move(references)) {}

    /// Judges one pass: `values` holds every cell that returned, `cells` the
    /// number attempted (the difference threw).
    void record(const Values& values, std::size_t cells) {
        attempted_ += cells;
        failed_ += cells - std::min(cells, values.size());
        for (const auto& [key, v] : values) {
            for (const Values* ref : references_) {
                const auto it = ref->find(key);
                if (it == ref->end() || !matches(v, it->second)) {
                    ++failed_;
                    misses_.insert(key);
                    break;
                }
            }
        }
        for (const Values* ref : references_) {
            for (const auto& entry : *ref) {
                if (values.count(entry.first) == 0) misses_.insert(entry.first + " (missing)");
            }
        }
        if (!first_) first_ = values;
    }

    [[nodiscard]] std::size_t attempted() const { return attempted_; }
    [[nodiscard]] std::size_t failed() const { return failed_; }
    [[nodiscard]] const std::set<std::string>& misses() const { return misses_; }
    [[nodiscard]] const std::optional<Values>& first() const { return first_; }

private:
    std::vector<const Values*> references_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::set<std::string> misses_;
    std::optional<Values> first_;
};

// ---------------------------------------------------------------------------
// Traced-run probes (layers measured outside the workload's own passes)
// ---------------------------------------------------------------------------

/// ns per stored nonzero of one `kernel` call, median of 7 timed batches.
double ns_per_nnz(const std::function<void()>& kernel, std::size_t nnz) {
    for (int i = 0; i < 3; ++i) kernel();
    const double t0 = now_s();
    kernel();
    const double once = std::max(now_s() - t0, 1e-7);
    const int reps = std::max(1, static_cast<int>(0.02 / once));
    std::vector<double> samples;
    for (int b = 0; b < 7; ++b) {
        const double s = now_s();
        for (int r = 0; r < reps; ++r) kernel();
        samples.push_back((now_s() - s) * 1e9 / (static_cast<double>(reps) * nnz));
    }
    return median(samples);
}

std::string kernel_mode_name(linalg::KernelMode mode) {
    switch (mode) {
        case linalg::KernelMode::Blocked: return "blocked";
        case linalg::KernelMode::Scalar: return "scalar";
        case linalg::KernelMode::Simd: return "simd";
    }
    return "unknown";
}

/// linalg rows on the line-1 FRF-1 individual chain, under every kernel mode
/// (the default mode's rows are the unsuffixed metrics).
void linalg_probe(const Config& cfg, Tracer& tracer, std::map<std::string, double>& metrics) {
    ScopedSpan probe(&tracer, "probe.linalg", 0, 0, 0, "L1 FRF-1 individual");
    core::CompileOptions options;
    options.encoding = core::Encoding::Individual;
    options.symmetry = core::SymmetryPolicy::Off;
    options.reduction = core::ReductionPolicy::Off;
    options.lint = analysis::LintLevel::Off;
    const auto model =
        core::compile(watertree::line(1, watertree::strategy("FRF-1"), cfg.params), options);
    const auto& rates = model.chain().rates();
    const std::size_t n = rates.rows(), nnz = rates.nonzeros();
    const double lambda = std::max(model.chain().max_exit_rate(), 1e-12) * 1.02;
    std::vector<double> in(n, 1.0 / static_cast<double>(n)), out(n, 0.0);
    const auto default_mode = linalg::kernel_mode();
    for (const auto mode :
         {linalg::KernelMode::Scalar, linalg::KernelMode::Blocked, linalg::KernelMode::Simd}) {
        linalg::set_kernel_mode(mode);
        const std::string name = kernel_mode_name(mode);
        {
            ScopedSpan span(&tracer, "linalg.ustep", probe.id(), 0, 0, name);
            metrics["linalg.ustep_ns_per_nnz." + name] = ns_per_nnz(
                [&] { linalg::uniformised_multiply_left(rates, lambda, in, out); }, nnz);
        }
        ScopedSpan span(&tracer, "linalg.spmv", probe.id(), 0, 0, name);
        metrics["linalg.spmv_ns_per_nnz." + name] =
            ns_per_nnz([&] { linalg::multiply_left(rates, in, out); }, nnz);
    }
    linalg::set_kernel_mode(default_mode);
    const std::string def = kernel_mode_name(default_mode);
    metrics["linalg.ustep_ns_per_nnz"] = metrics["linalg.ustep_ns_per_nnz." + def];
    metrics["linalg.spmv_ns_per_nnz"] = metrics["linalg.spmv_ns_per_nnz." + def];
    // Computed traffic of one uniformised left step: per nonzero the column
    // index and value are read and out[col] is read and written; per row the
    // row pointer and in[i] are read, out[i] is zeroed, then updated.
    metrics["linalg.ustep_bytes_per_nnz"] =
        (32.0 * static_cast<double>(nnz) + 40.0 * static_cast<double>(n)) /
        static_cast<double>(nnz);
}

/// core::compile of line-1 FRF-1 (individual, lint off) at 1 and at
/// cfg.threads explore threads.
void compile_speedup_probe(const Config& cfg, Tracer& tracer,
                           std::map<std::string, double>& metrics) {
    ScopedSpan probe(&tracer, "probe.compile_speedup", 0, 0, 0, "L1 FRF-1 individual");
    const auto model = watertree::line(1, watertree::strategy("FRF-1"), cfg.params);
    const auto time_compile = [&](unsigned threads) {
        core::CompileOptions options;
        options.encoding = core::Encoding::Individual;
        options.symmetry = core::SymmetryPolicy::Off;
        options.reduction = core::ReductionPolicy::Off;
        options.lint = analysis::LintLevel::Off;
        options.threads = threads;
        std::vector<double> samples;
        for (int i = 0; i < 3; ++i) {
            ScopedSpan span(&tracer, "arcade.compile", probe.id(), 0, 0,
                            std::to_string(threads) + " threads");
            const double t0 = now_s();
            (void)core::compile(model, options);
            samples.push_back(now_s() - t0);
        }
        return median(samples);
    };
    const double one = time_compile(1);
    metrics["arcade.compile_speedup_4t"] = one / time_compile(cfg.threads);
}

/// Quotient of each model (graph layer) and a Gauss–Seidel iteration count,
/// for workloads whose passes do not lump.
void graph_and_gs_probe(const std::vector<CompiledPtr>& models, Tracer& tracer,
                        std::uint64_t pass_id, bool quotient_in_pass,
                        std::map<std::string, double>& metrics) {
    ScopedSpan probe(&tracer, "probe.graph_numeric", 0, pass_id, 0, "");
    double lump_s = 0.0, states_in = 0.0, blocks_out = 0.0, gs_iterations = 0.0;
    for (const auto& m : models) {
        std::shared_ptr<const ctmc::QuotientCtmc> q;
        {
            ScopedSpan span(&tracer, "graph.lump", probe.id(), pass_id, 0, "");
            const double t0 = now_s();
            q = m->quotient().first;
            lump_s += now_s() - t0;
        }
        states_in += static_cast<double>(m->state_count());
        blocks_out += static_cast<double>(q->block_count());
        const ctmc::Ctmc& chain =
            m->reduction() == core::ReductionPolicy::Auto ? q->chain() : m->chain();
        std::vector<double> pi(chain.state_count(), 0.0);
        ScopedSpan span(&tracer, "numeric.gauss_seidel", probe.id(), pass_id, 0, "");
        gs_iterations +=
            static_cast<double>(numeric::steady_state_gauss_seidel(chain.rates(), pi).iterations);
    }
    if (!quotient_in_pass) {
        metrics["graph.lump_s"] = lump_s;
        metrics["graph.states_in"] = states_in;
        metrics["graph.blocks_out"] = blocks_out;
    }
    metrics["numeric.gs_iterations"] = gs_iterations;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct RunOutput {
    std::map<std::string, double> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::set<std::string> misses;
};

/// Adds the checker's verdicts to `out` (which may already hold a probe's).
void add_verdicts(const Checker& checker, RunOutput& out) {
    out.attempted += checker.attempted();
    out.failed += checker.failed();
    out.misses.insert(checker.misses().begin(), checker.misses().end());
}

// Every untraced run takes at least this many samples of each timing, and
// grid workloads set up three times per iteration, so the medians stay
// steady on workloads whose passes take seconds.  Workloads whose cold pass
// takes under kSolveEachBelowS also solve after every set-up: their solves
// take tens of milliseconds, and one per iteration gives too few samples.
constexpr std::size_t kMinPasses = 3;
constexpr int kSetupsPerIteration = 3;
constexpr double kSolveEachBelowS = 1.0;

void print_samples(const std::vector<double>& pass_s, const std::vector<double>& setup_s,
                   const std::vector<double>& solve_s) {
    const auto list = [](const char* name, const std::vector<double>& v) {
        std::cerr << "# " << name << " samples (" << v.size() << "):";
        for (const double x : v) std::cerr << " " << x;
        std::cerr << "\n";
    };
    list("pass_s", pass_s);
    list("setup_s", setup_s);
    list("solve_s", solve_s);
}

RunOutput grid_untraced(const Config& cfg, Checker& checker) {
    const GridWorkload w = make_grid_workload(cfg.workload, cfg);
    std::vector<double> pass_s, setup_s, solve_s;
    double rss_mb = 0.0;
    const double start = now_s();
    do {
        {  // A: one cold pass, the way arcade_sweep runs it.
            Session session;
            numeric::fox_glynn_cache_clear();
            const double t0 = now_s();
            const auto pass = run_and_export(session, w, cfg, cfg.threads);
            pass_s.push_back(now_s() - t0);
            checker.record(values_of(pass.report), w.items.size());
            if (pass_s.size() == 1) rss_mb = peak_rss_mb();
        }
        // B: set up on fresh sessions, one at a time.  Short passes solve on
        // every set-up session, long ones only on the last.
        const bool solve_each = pass_s.back() < kSolveEachBelowS;
        for (int k = 0; k < kSetupsPerIteration; ++k) {
            Session session;
            double t0 = now_s();
            setup_grid(session, w, cfg);
            setup_s.push_back(now_s() - t0);
            if (!solve_each && k + 1 < kSetupsPerIteration) continue;
            numeric::fox_glynn_cache_clear();
            t0 = now_s();
            const auto pass = run_and_export(session, w, cfg, cfg.threads);
            solve_s.push_back(now_s() - t0);
            checker.record(values_of(pass.report), w.items.size());
        }
    } while (now_s() - start < cfg.seconds || pass_s.size() < kMinPasses);
    RunOutput out;
    out.metrics["pass_s"] = median(pass_s);
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["solve_s"] = median(solve_s);
    out.metrics["peak_rss_mb"] = rss_mb;
    print_samples(pass_s, setup_s, solve_s);
    return out;
}

/// The grid layers of a traced run: traced passes of `w`, untraced
/// cfg.threads and 1-thread passes (sweep and engine rows) and the
/// graph/numeric probe.
void grid_layers(const GridWorkload& w, const Config& cfg, Tracer& tracer, double budget_s,
                 Checker& checker, std::map<std::string, double>& metrics,
                 std::uint64_t& next_pass) {
    std::vector<double> total, compile, lint, lump, steady, surv, inst, acc;
    std::optional<TracedGridPass> last;
    const double start = now_s();
    do {
        const std::uint64_t id = next_pass++;
        auto pass = traced_grid_pass(w, cfg, tracer, id);
        checker.record(pass.values, w.items.size());
        total.push_back(pass.total_s);
        compile.push_back(tracer.total_seconds("arcade.compile", id));
        lint.push_back(tracer.total_seconds("analysis.lint", id));
        lump.push_back(tracer.total_seconds("graph.lump", id));
        steady.push_back(tracer.total_seconds("ctmc.steady", id));
        surv.push_back(tracer.total_seconds("ctmc.survivability", id));
        inst.push_back(tracer.total_seconds("ctmc.instcost", id));
        acc.push_back(tracer.total_seconds("rewards.acccost", id));
        last = std::move(pass);
    } while (now_s() - start < budget_s);
    metrics["trace.total_s"] = median(total);
    metrics["arcade.compile_s"] = median(compile);
    metrics["arcade.states"] = static_cast<double>(last->states);
    metrics["arcade.transitions"] = static_cast<double>(last->transitions);
    metrics["arcade.states_per_s"] = static_cast<double>(last->states) / median(compile);
    metrics["analysis.lint_s"] = median(lint);
    metrics["analysis.lint_frac"] = median(lint) / (median(lint) + median(compile));
    const bool reduces = w.options.reduction == core::ReductionPolicy::Auto;
    if (reduces) {
        metrics["graph.lump_s"] = median(lump);
        metrics["graph.states_in"] = static_cast<double>(last->states_in);
        metrics["graph.blocks_out"] = static_cast<double>(last->blocks_out);
    }
    metrics["ctmc.steady_s"] = median(steady);
    metrics["ctmc.survivability_s"] = median(surv);
    metrics["ctmc.instcost_s"] = median(inst);
    metrics["rewards.acccost_s"] = median(acc);
    metrics["ctmc.unif_steps"] = last->unif_steps;
    metrics["numeric.foxglynn_hits"] = static_cast<double>(last->fg_hits);
    metrics["numeric.foxglynn_misses"] = static_cast<double>(last->fg_misses);
    graph_and_gs_probe(last->models, tracer, next_pass++, reduces, metrics);

    // Untraced passes: the sweep runner at cfg.threads and at one thread.
    std::vector<double> cells, wall, busy, export_s;
    engine::SessionStats stats;
    const double untraced_start = now_s();
    do {
        Session session;
        numeric::fox_glynn_cache_clear();
        const double t0 = now_s();
        const auto pass = run_and_export(session, w, cfg, cfg.threads);
        wall.push_back(now_s() - t0);
        checker.record(values_of(pass.report), w.items.size());
        double busy_s = 0.0;
        for (const auto& r : pass.report.results) {
            cells.push_back(r.seconds);
            busy_s += r.seconds;
        }
        busy.push_back(busy_s / (pass.report.wall_seconds * cfg.threads));
        export_s.push_back(pass.export_s);
        stats = pass.report.stats;
    } while (now_s() - untraced_start < std::min(1.0, budget_s));
    double wall1 = 0.0;
    {
        Session session;
        numeric::fox_glynn_cache_clear();
        const double t0 = now_s();
        const auto pass = run_and_export(session, w, cfg, 1);
        wall1 = now_s() - t0;
        checker.record(values_of(pass.report), w.items.size());
    }
    metrics["trace.pass_s"] = median(wall);
    metrics["sweep.busy_frac"] = median(busy);
    metrics["sweep.speedup_4t"] = wall1 / median(wall);
    metrics["sweep.cell_s.p50"] = quantile(cells, 0.50);
    metrics["sweep.cell_s.p99"] = quantile(cells, 0.99);
    metrics["sweep.export_s"] = median(export_s);
    metrics["engine.compile_hits"] = static_cast<double>(stats.compile_hits);
    metrics["engine.compile_misses"] = static_cast<double>(stats.compile_misses);
    metrics["engine.steady_hits"] = static_cast<double>(stats.steady_state_hits);
    metrics["engine.steady_misses"] = static_cast<double>(stats.steady_state_misses);
}

/// The prism/modules/logic layers, which no grid workload reaches: one
/// traced pass over the line-2 PRISM models, its queries checked against
/// the prism oracle (computed here; traced runs report no memory).
void prism_probe(const Config& cfg, Tracer& tracer, std::map<std::string, double>& metrics,
                 std::uint64_t pass_id, RunOutput& out) {
    const auto models = make_prism_models(cfg);
    const Values oracle = prism_oracle(models, cfg);
    const auto pass = prism_pass(models, cfg, tracer, pass_id);
    Checker checker({&oracle});
    checker.record(pass.values, pass.queries);
    add_verdicts(checker, out);
    const double explore_s = tracer.total_seconds("modules.explore", pass_id);
    metrics["prism.parse_s"] = tracer.total_seconds("prism.parse", pass_id);
    metrics["modules.explore_s"] = explore_s;
    metrics["modules.states_per_s"] = static_cast<double>(pass.states) / explore_s;
    metrics["logic.steady_s"] = tracer.total_seconds("logic.steady", pass_id);
    metrics["logic.until_s"] = tracer.total_seconds("logic.until", pass_id);
    metrics["logic.reward_bounded_s"] = tracer.total_seconds("logic.reward_bounded", pass_id);
}

RunOutput traced(const Config& cfg, Checker& checker) {
    Tracer tracer;
    RunOutput out;
    std::uint64_t next_pass = 1;
    prism_probe(cfg, tracer, out.metrics, next_pass++, out);
    grid_layers(make_grid_workload(cfg.workload, cfg), cfg, tracer, cfg.seconds, checker,
                out.metrics, next_pass);
    linalg_probe(cfg, tracer, out.metrics);
    compile_speedup_probe(cfg, tracer, out.metrics);
    const std::string path =
        cfg.out_dir + "/trace-" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".json";
    std::ofstream file(path);
    tracer.write_chrome_json(file);
    if (!file) throw std::runtime_error("cannot write " + path);
    std::cerr << "# trace written to " << path << " (" << tracer.spans().size() << " spans)\n";
    return out;
}

// ---------------------------------------------------------------------------
// Provenance and output
// ---------------------------------------------------------------------------

std::string policy_name(bool on) { return on ? "auto" : "off"; }

std::string eval_name(expr::EvalMode mode) {
    switch (mode) {
        case expr::EvalMode::Vm: return "vm";
        case expr::EvalMode::Interp: return "interp";
        case expr::EvalMode::Codegen: return "codegen";
    }
    return "unknown";
}

std::string modes_json(const Config& cfg) {
    const auto w = make_grid_workload(cfg.workload, cfg);
    const std::string reduction =
        policy_name(w.options.reduction == core::ReductionPolicy::Auto);
    const std::string symmetry = policy_name(w.options.symmetry == core::SymmetryPolicy::Auto);
    std::ostringstream os;
    os << "{\"eval\":\"" << eval_name(expr::default_eval_mode()) << "\",\"kernel\":\""
       << kernel_mode_name(linalg::kernel_mode()) << "\",\"simd_available\":"
       << (linalg::simd_available() ? "true" : "false") << ",\"lint\":\""
       << analysis::lint_level_name(analysis::default_lint_level()) << "\",\"reduction\":\""
       << reduction << "\",\"symmetry\":\"" << symmetry << "\",\"batch\":\""
       << policy_name(core::default_batch_policy() == core::BatchPolicy::Auto) << "\"}";
    return os.str();
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    return fmt17(v);
}

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " --workload paper|individual|reduced --seed N --seconds S"
                 " --trace 0|1 --threads T --out DIR --oracle-values FILE"
                 " [--expected FILE] [--dump-values FILE]\n"
                 "       "
              << argv0
              << " --workload W --seed N --threads T --oracle FILE"
                 "   (compute the oracle's values only)\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Config cfg;
    std::string oracle_out, oracle_in;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) return usage(argv[0]);
            const std::string value = argv[++i];
            if (arg == "--workload") cfg.workload = value;
            else if (arg == "--seed") cfg.seed = std::stoull(value);
            else if (arg == "--seconds") cfg.seconds = std::stod(value);
            else if (arg == "--trace") cfg.trace = value == "1";
            else if (arg == "--threads") cfg.threads = static_cast<unsigned>(std::stoul(value));
            else if (arg == "--out") cfg.out_dir = value;
            else if (arg == "--expected") cfg.expected = value;
            else if (arg == "--oracle") oracle_out = value;
            else if (arg == "--oracle-values") oracle_in = value;
            else if (arg == "--dump-values") cfg.dump_values = value;
            else return usage(argv[0]);
        }
    } catch (const std::exception&) {
        return usage(argv[0]);
    }
    if (!is_grid_workload(cfg.workload)) return usage(argv[0]);
    if (!bench::release_build()) {
        std::cerr << "arcade_perfbench: refusing to measure a " << bench::build_type()
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    cfg.threads = std::max(1u, cfg.threads);
    cfg.params = seeded_parameters(cfg.seed);
    try {
        // The oracle runs in its own process, so its chains never count
        // towards the measured process's memory or heap state.
        if (!oracle_out.empty()) {
            write_values(grid_oracle(cfg.workload, cfg), oracle_out);
            return 0;
        }
        if (oracle_in.empty()) return usage(argv[0]);
        const Values oracle = read_values(oracle_in);
        std::optional<Values> expected;
        if (!cfg.expected.empty()) expected = read_values(cfg.expected);
        std::vector<const Values*> references{&oracle};
        if (expected) references.push_back(&*expected);
        Checker checker(references);

        RunOutput out = cfg.trace ? traced(cfg, checker) : grid_untraced(cfg, checker);
        add_verdicts(checker, out);
        if (!cfg.dump_values.empty() && checker.first()) {
            write_values(*checker.first(), cfg.dump_values);
        }
        for (const auto& miss : out.misses) std::cerr << "MISMATCH " << miss << "\n";
        std::cout << "{\"workload\":\"" << cfg.workload << "\",\"seed\":" << cfg.seed
                  << ",\"trace\":" << (cfg.trace ? 1 : 0) << ",\"threads\":" << cfg.threads
                  << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
                  << ",\"build_type\":\"" << bench::build_type()
                  << "\",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
                  << ",\"misses\":" << out.misses.size() << ",\"tolerance\":{\"abs\":"
                  << fmt17(kAbsTol) << ",\"rel\":" << fmt17(kRelTol)
                  << "},\"modes\":" << modes_json(cfg) << ",\"metrics\":{";
        bool first = true;
        for (const auto& [name, value] : out.metrics) {
            std::cout << (first ? "" : ",") << "\"" << name << "\":" << json_number(value);
            first = false;
        }
        std::cout << "}}\n";
        return out.failed == 0 && out.misses.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "arcade_perfbench: " << e.what() << "\n";
        return 1;
    }
}
