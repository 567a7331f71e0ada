// Engine micro-benchmarks (google-benchmark): the numerical kernels behind
// every experiment — state-space construction on the packed store (serial
// and sharded-parallel), session cache behaviour, sparse matvec, Fox–Glynn,
// transient uniformisation, steady-state Gauss–Seidel, bounded until.
//
// Reports states/sec for construction and cache-hit counters for the
// session benchmarks.  Unless --benchmark_out is given, results are merged
// into BENCH_engine.json (the perf trajectory file): same-(bench, build,
// commit) rows are replaced in place, other rows are preserved — see
// bench_json.hpp.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <unordered_map>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "arcade/modules_compiler.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "ctmc/bounded_until.hpp"
#include "ctmc/quotient.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "engine/explore.hpp"
#include "engine/session.hpp"
#include "numeric/fox_glynn.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace engine = arcade::engine;
namespace wt = arcade::watertree;

namespace {

const core::CompiledModel& line2_frf1() {
    static const auto model = core::compile(wt::line2(wt::strategy("FRF-1")));
    return model;
}

const core::CompiledModel& line2_frf1_lumped() {
    static const auto model = [] {
        core::CompileOptions options;
        options.encoding = core::Encoding::Lumped;
        return core::compile(wt::line2(wt::strategy("FRF-1")), options);
    }();
    return model;
}

void report_construction(benchmark::State& state, const core::CompiledModel& model) {
    state.counters["states"] = static_cast<double>(model.state_count());
    state.counters["states/s"] =
        benchmark::Counter(static_cast<double>(model.state_count()),
                           benchmark::Counter::kIsIterationInvariantRate);
    state.counters["store_bytes"] = static_cast<double>(model.state_store().memory_bytes());
}

void BM_StateSpaceLine2Individual(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto model = wt::line2(wt::strategy("FRF-1"));
    core::CompileOptions options;
    options.threads = static_cast<unsigned>(state.range(0));
    const auto compiled = core::compile(model, options);  // counters only, untimed
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::compile(model, options).state_count());
    }
    report_construction(state, compiled);
}
BENCHMARK(BM_StateSpaceLine2Individual)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_StateSpaceLine1Individual(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto model = wt::line1(wt::strategy("FRF-1"));
    core::CompileOptions options;
    options.threads = static_cast<unsigned>(state.range(0));
    const auto compiled = core::compile(model, options);  // counters only, untimed
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::compile(model, options).state_count());
    }
    report_construction(state, compiled);
}
BENCHMARK(BM_StateSpaceLine1Individual)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_StateSpaceLine1Lumped(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto model = wt::line1(wt::strategy("FRF-1"));
    core::CompileOptions options;
    options.encoding = core::Encoding::Lumped;
    const auto compiled = core::compile(model, options);  // counters only, untimed
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::compile(model, options).state_count());
    }
    report_construction(state, compiled);
}
BENCHMARK(BM_StateSpaceLine1Lumped)->Unit(benchmark::kMillisecond);

/// The compile pipeline's lint stage in isolation (reactive-modules
/// translation + linter), with its cost relative to a full compile of the
/// same model.  The stage is budgeted at < 5% of compile time on the
/// paper's large model (line 1); the smaller line 2 compiles in a few
/// milliseconds, so its fraction is noisier.
void BM_LintStage(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto model = state.range(0) == 1 ? wt::line1(wt::strategy("FRF-1"))
                                           : wt::line2(wt::strategy("FRF-1"));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            arcade::analysis::lint(core::to_reactive_modules(model)).clean());
    }
    const auto lint_start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        arcade::analysis::lint(core::to_reactive_modules(model)).clean());
    const auto lint_end = std::chrono::steady_clock::now();
    core::CompileOptions options;
    options.lint = arcade::analysis::LintLevel::Off;
    const auto compile_start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(core::compile(model, options).state_count());
    const auto compile_end = std::chrono::steady_clock::now();
    const double lint_seconds =
        std::chrono::duration<double>(lint_end - lint_start).count();
    const double compile_seconds =
        std::chrono::duration<double>(compile_end - compile_start).count();
    state.counters["lint_seconds"] = lint_seconds;
    state.counters["compile_seconds"] = compile_seconds;
    state.counters["lint_fraction"] = lint_seconds / compile_seconds;
}
BENCHMARK(BM_LintStage)->Arg(1)->Arg(2)->ArgName("line")->Unit(benchmark::kMicrosecond);

/// Cold session: every iteration compiles for real (cache miss).
void BM_SessionCompileCold(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto model = wt::line2(wt::strategy("FRF-1"));
    for (auto _ : state) {
        engine::AnalysisSession session;
        benchmark::DoNotOptimize(session.compile(model)->state_count());
    }
    state.SetLabel("miss per iteration");
}
BENCHMARK(BM_SessionCompileCold)->Unit(benchmark::kMillisecond);

/// Warm session: iterations after the first return the cached instance —
/// this is the repeated-scenario path the figure benches take.
void BM_SessionCompileCached(benchmark::State& state) {
    bench::stamp_build_type(state);
    engine::AnalysisSession session;
    const auto model = wt::line2(wt::strategy("FRF-1"));
    benchmark::DoNotOptimize(session.compile(model)->state_count());
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.compile(model)->state_count());
    }
    const auto stats = session.stats();
    state.counters["cache_hits"] = static_cast<double>(stats.compile_hits);
    state.counters["cache_misses"] = static_cast<double>(stats.compile_misses);
    state.counters["hits/s"] = benchmark::Counter(
        static_cast<double>(stats.compile_hits), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionCompileCached);

/// Partition refinement itself: the cost of auto-lumping the paper's
/// individual encoding, with the achieved reduction as counters.
void BM_StateSpaceQuotientLine2Individual(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1();
    const auto signature = model.lump_signature();
    std::size_t blocks = 0;
    for (auto _ : state) {
        const arcade::ctmc::QuotientCtmc quotient(model.chain(), signature);
        blocks = quotient.block_count();
        benchmark::DoNotOptimize(blocks);
    }
    state.counters["states"] = static_cast<double>(model.state_count());
    state.counters["blocks"] = static_cast<double>(blocks);
    state.counters["reduction_ratio"] =
        static_cast<double>(model.state_count()) / static_cast<double>(blocks);
}
BENCHMARK(BM_StateSpaceQuotientLine2Individual)->Unit(benchmark::kMillisecond);

/// Session-cached quotient: the repeated-scenario path under
/// ReductionPolicy::Auto — every request after the first is a lump hit.
void BM_SessionQuotientCached(benchmark::State& state) {
    bench::stamp_build_type(state);
    engine::AnalysisSession session;
    core::CompileOptions options;
    options.reduction = core::ReductionPolicy::Auto;
    const auto model = session.compile(wt::line2(wt::strategy("FRF-1")), options);
    benchmark::DoNotOptimize(session.quotient(model)->block_count());
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.quotient(model)->block_count());
    }
    const auto stats = session.stats();
    state.counters["lump_hits"] = static_cast<double>(stats.lump_hits);
    state.counters["lump_misses"] = static_cast<double>(stats.lump_misses);
    state.counters["lump_states_in"] = static_cast<double>(stats.lump_states_in);
    state.counters["lump_states_out"] = static_cast<double>(stats.lump_states_out);
    state.counters["reduction_ratio"] = stats.reduction_ratio();
}
BENCHMARK(BM_SessionQuotientCached);

/// Cached steady-state: availability + long-run cost off one solve.
void BM_SessionSteadyStateCached(benchmark::State& state) {
    bench::stamp_build_type(state);
    engine::AnalysisSession session;
    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;
    const auto model = session.compile(wt::line2(wt::strategy("FRF-1")), lumped);
    benchmark::DoNotOptimize(session.availability(model));
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.availability(model));
        benchmark::DoNotOptimize(session.steady_state_cost(model));
    }
    const auto stats = session.stats();
    state.counters["steady_hits"] = static_cast<double>(stats.steady_state_hits);
    state.counters["steady_solves"] = static_cast<double>(stats.steady_state_misses);
}
BENCHMARK(BM_SessionSteadyStateCached);

// ---------------------------------------------------------------------------
// Packed store vs the seed's vector-keyed interning, on an identical
// synthetic workload (6-D torus walk, 7^6 = 117649 states): isolates the
// state-storage data structure from model-specific successor costs.
// ---------------------------------------------------------------------------

constexpr std::int64_t kTorusDims = 6;
constexpr std::int64_t kTorusSide = 7;

template <typename Emit>
void torus_successors(std::span<const std::int64_t> s, std::vector<std::int64_t>& buf,
                      Emit&& emit) {
    for (std::int64_t d = 0; d < kTorusDims; ++d) {
        if (s[d] + 1 < kTorusSide) {
            buf.assign(s.begin(), s.end());
            ++buf[d];
            emit(std::span<const std::int64_t>(buf), 1.0);
        }
        if (s[d] > 0) {
            buf.assign(s.begin(), s.end());
            --buf[d];
            emit(std::span<const std::int64_t>(buf), 0.5);
        }
    }
}

void BM_ExploreTorusPackedStore(benchmark::State& state) {
    bench::stamp_build_type(state);
    const engine::StateLayout layout(
        std::vector<engine::FieldSpec>(kTorusDims, {0, kTorusSide - 1}));
    const std::vector<std::int64_t> initial(kTorusDims, 0);
    std::size_t states = 0;
    for (auto _ : state) {
        auto result = engine::explore_bfs(
            layout, initial,
            [] {
                return [buf = std::vector<std::int64_t>()](
                           std::span<const std::int64_t> s, auto&& emit) mutable {
                    torus_successors(s, buf, emit);
                };
            },
            engine::EngineOptions{.max_states = 1'000'000, .threads = 1});
        states = result.store.size();
        benchmark::DoNotOptimize(states);
    }
    state.counters["states"] = static_cast<double>(states);
    state.counters["states/s"] = benchmark::Counter(
        static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExploreTorusPackedStore)->Unit(benchmark::kMillisecond);

/// The seed's storage scheme: std::unordered_map over heap-allocated
/// std::vector valuations (FNV-1a), vector-of-vectors state list.
void BM_ExploreTorusVectorMap(benchmark::State& state) {
    bench::stamp_build_type(state);
    struct VecHash {
        std::size_t operator()(const std::vector<std::int64_t>& s) const noexcept {
            std::size_t h = 1469598103934665603ull;
            for (std::int64_t v : s) {
                h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull;
                h *= 1099511628211ull;
            }
            return h;
        }
    };
    const std::vector<std::int64_t> initial(kTorusDims, 0);
    std::size_t states_count = 0;
    for (auto _ : state) {
        std::unordered_map<std::vector<std::int64_t>, std::size_t, VecHash> index;
        std::vector<std::vector<std::int64_t>> states;
        std::vector<std::tuple<std::size_t, std::size_t, double>> transitions;
        index.emplace(initial, 0);
        states.push_back(initial);
        std::vector<std::int64_t> buf;
        for (std::size_t si = 0; si < states.size(); ++si) {
            const std::vector<std::int64_t> current = states[si];
            torus_successors(current, buf,
                             [&](std::span<const std::int64_t> target, double rate) {
                                 std::vector<std::int64_t> key(target.begin(), target.end());
                                 const auto [it, inserted] =
                                     index.emplace(std::move(key), states.size());
                                 if (inserted) states.push_back(it->first);
                                 transitions.emplace_back(si, it->second, rate);
                             });
        }
        states_count = states.size();
        benchmark::DoNotOptimize(states_count);
        benchmark::DoNotOptimize(transitions.data());
    }
    state.counters["states"] = static_cast<double>(states_count);
    state.counters["states/s"] = benchmark::Counter(
        static_cast<double>(states_count), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExploreTorusVectorMap)->Unit(benchmark::kMillisecond);

void BM_FoxGlynn(benchmark::State& state) {
    bench::stamp_build_type(state);
    const double q = static_cast<double>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(arcade::numeric::fox_glynn(q, 1e-12).weights.size());
    }
}
BENCHMARK(BM_FoxGlynn)->Arg(10)->Arg(100)->Arg(1000);

void BM_SparseMatvec(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1();
    std::vector<double> x(model.state_count(), 1.0 / model.state_count());
    std::vector<double> y(model.state_count(), 0.0);
    for (auto _ : state) {
        arcade::linalg::multiply_left(model.chain().rates(), x, y);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_SparseMatvec);

void BM_TransientLine2(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1();
    const auto init = model.chain().initial_distribution();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            arcade::ctmc::transient_distribution(model.chain(), init, 10.0).front());
    }
}
BENCHMARK(BM_TransientLine2)->Unit(benchmark::kMillisecond);

/// Same transient solve, but scratch vectors come from a workspace pool.
void BM_TransientLine2Pooled(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1();
    const auto init = model.chain().initial_distribution();
    engine::WorkspacePool pool;
    arcade::ctmc::TransientOptions options;
    options.workspace = &pool;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            arcade::ctmc::transient_distribution(model.chain(), init, 10.0, options)
                .front());
    }
    state.counters["scratch_reuses"] = static_cast<double>(pool.reuse_count());
}
BENCHMARK(BM_TransientLine2Pooled)->Unit(benchmark::kMillisecond);

void BM_SteadyStateLine2(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            arcade::ctmc::steady_state_probability(model.chain(), model.operational_states()));
    }
}
BENCHMARK(BM_SteadyStateLine2)->Unit(benchmark::kMillisecond);

void BM_SurvivabilityCurveLumped(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1_lumped();
    const auto disaster = wt::disaster2();
    const std::vector<double> times{0.0, 25.0, 50.0, 75.0, 100.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::survivability_series(model, disaster, 1.0 / 3.0, times).back());
    }
}
BENCHMARK(BM_SurvivabilityCurveLumped)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: unless --benchmark_out is given, results land in a temp JSON
// whose rows are merged into BENCH_engine.json, so every run contributes a
// machine-readable point to the perf trajectory without duplicating (or,
// as the old overwrite did, erasing) other harnesses' rows.
int main(int argc, char** argv) {
    bench::warn_if_not_release();
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
            std::strcmp(argv[i], "--benchmark_out") == 0) {
            has_out = true;
        }
    }
    static char out_flag[] = "--benchmark_out=BENCH_perf.tmp.json";
    static char fmt_flag[] = "--benchmark_out_format=json";
    std::vector<char*> args(argv, argv + argc);
    if (!has_out) {
        args.push_back(out_flag);
        args.push_back(fmt_flag);
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!has_out) {
        if (bench::merge_benchmarks("BENCH_engine.json", "BENCH_perf.tmp.json",
                                    bench::build_type())) {
            std::remove("BENCH_perf.tmp.json");
            std::printf("merged engine rows into BENCH_engine.json\n");
        } else {
            std::printf("left results in BENCH_perf.tmp.json (no merge target)\n");
        }
    }
    return 0;
}
