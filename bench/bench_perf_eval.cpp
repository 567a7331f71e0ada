// Evaluation-pipeline micro-benchmarks: the tree interpreter vs the expr
// bytecode VM vs the native-codegen backend (generated C++, dlopen'ed) on
// full state-space exploration (every paper strategy's line-2
// reactive-modules translation, single-threaded so the numbers isolate
// per-state evaluation cost), and the scalar vs blocked vs SIMD CSR kernels
// on the matvec shapes the numeric core runs (distribution propagation,
// backward gather, uniformised step), plus one survivability series cell
// timed end to end.  All kernel comparisons are between
// bitwise-identical computations — the speedup is pure evaluation
// mechanics, never a numerics change (asserted by test_eval_rewire).
//
// Results are MERGED into BENCH_engine.json via the same temp-JSON merge
// the lumping harness uses (bench_json.hpp: same-(bench, build, commit)
// rows are replaced in place, never duplicated), so the interp-vs-VM and
// scalar-vs-blocked rows ride the perf trajectory file.  --benchmark_out
// overrides as usual.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "arcade/modules_compiler.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "ctmc/bounded_until.hpp"
#include "expr/codegen.hpp"
#include "expr/vm.hpp"
#include "linalg/kernels.hpp"
#include "modules/explorer.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace ctmc = arcade::ctmc;
namespace expr = arcade::expr;
namespace linalg = arcade::linalg;
namespace modules = arcade::modules;
namespace wt = arcade::watertree;

namespace {

const modules::ModuleSystem& line2_system(const std::string& strategy) {
    static std::map<std::string, modules::ModuleSystem> cache;
    const auto it = cache.find(strategy);
    if (it != cache.end()) return it->second;
    return cache
        .emplace(strategy, core::to_reactive_modules(wt::line2(wt::strategy(strategy))))
        .first->second;
}

void run_explore(benchmark::State& state, const char* strategy, expr::EvalMode eval) {
    bench::stamp_build_type(state);
    const auto& system = line2_system(strategy);
    modules::ExploreOptions options;
    options.eval = eval;
    options.threads = 1;  // isolate per-state evaluation cost from sharding
    // Untimed warm-up: under codegen this pays the one-time out-of-process
    // unit compile, so the timed loop measures the steady state (content-
    // addressed cache hit + dlopen per explore, native calls per state).
    std::size_t states = modules::explore(system, options).state_count();
    const expr::CodegenCounters cg_before = expr::codegen_counters();
    for (auto _ : state) {
        states = modules::explore(system, options).state_count();
        benchmark::DoNotOptimize(states);
    }
    const expr::CodegenCounters cg_after = expr::codegen_counters();
    state.counters["states"] = static_cast<double>(states);
    state.counters["states/s"] = benchmark::Counter(
        static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
    if (eval == expr::EvalMode::Codegen) {
        // Honesty counter: non-zero fallbacks would mean the "codegen" rows
        // actually measured the VM (no toolchain on the bench machine).
        state.counters["cg_fallbacks"] =
            static_cast<double>(cg_after.fallbacks - cg_before.fallbacks);
    }
}

void BM_ExploreInterp(benchmark::State& state, const char* strategy) {
    run_explore(state, strategy, expr::EvalMode::Interp);
}
void BM_ExploreVm(benchmark::State& state, const char* strategy) {
    run_explore(state, strategy, expr::EvalMode::Vm);
}
void BM_ExploreCodegen(benchmark::State& state, const char* strategy) {
    run_explore(state, strategy, expr::EvalMode::Codegen);
}

BENCHMARK_CAPTURE(BM_ExploreInterp, l2_DED, "DED")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_DED, "DED")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreCodegen, l2_DED, "DED")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FRF1, "FRF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FRF1, "FRF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreCodegen, l2_FRF1, "FRF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FRF2, "FRF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FRF2, "FRF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreCodegen, l2_FRF2, "FRF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FFF1, "FFF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FFF1, "FFF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreCodegen, l2_FFF1, "FFF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FFF2, "FFF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FFF2, "FFF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreCodegen, l2_FFF2, "FFF-2")->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel comparison on the explored FRF-1 line-2 chain (8129 states).
// ---------------------------------------------------------------------------

const linalg::CsrMatrix& frf1_rates() {
    static const linalg::CsrMatrix rates = [] {
        return modules::explore(line2_system("FRF-1")).chain.rates();
    }();
    return rates;
}

template <typename Fn>
void run_kernel(benchmark::State& state, linalg::KernelMode mode, Fn&& fn) {
    bench::stamp_build_type(state);
    const linalg::KernelMode before = linalg::kernel_mode();
    linalg::set_kernel_mode(mode);
    const auto& rates = frf1_rates();
    std::vector<double> x(rates.rows(), 1.0 / static_cast<double>(rates.rows()));
    std::vector<double> y(rates.rows(), 0.0);
    for (auto _ : state) {
        fn(rates, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    linalg::set_kernel_mode(before);
    state.counters["nonzeros"] = static_cast<double>(rates.nonzeros());
    state.counters["nnz/s"] = benchmark::Counter(static_cast<double>(rates.nonzeros()),
                                                 benchmark::Counter::kIsIterationInvariantRate);
    // Matvec throughput at 2 flops per stored entry (multiply + accumulate);
    // the uniformised kernels do a little more per entry, so for them this
    // is a comparable lower bound rather than an exact count.
    state.counters["gflops"] =
        benchmark::Counter(2.0e-9 * static_cast<double>(rates.nonzeros()),
                           benchmark::Counter::kIsIterationInvariantRate);
}

void BM_MatvecLeft(benchmark::State& state, linalg::KernelMode mode) {
    run_kernel(state, mode, [](const auto& m, const auto& x, auto& y) {
        linalg::multiply_left(m, x, y);
    });
}
void BM_MatvecRight(benchmark::State& state, linalg::KernelMode mode) {
    run_kernel(state, mode, [](const auto& m, const auto& x, auto& y) {
        linalg::multiply_right(m, x, y);
    });
}
// The uniformised steps run over P = I + Q/100 built once, the way every
// solver steps; the on-the-fly row divides each rate by lambda per step
// (the reference those kernels are bitwise identical to).  Neither depends
// on the kernel mode.
const linalg::UniformisedMatrix& frf1_uniformised() {
    static const linalg::UniformisedMatrix p = linalg::uniformise(frf1_rates(), 100.0);
    return p;
}

void BM_UniformisedLeft(benchmark::State& state) {
    const auto& p = frf1_uniformised();
    run_kernel(state, linalg::kernel_mode(), [&](const auto&, const auto& x, auto& y) {
        linalg::uniformised_multiply_left(p, x, y);
    });
}
void BM_UniformisedRight(benchmark::State& state) {
    const auto& p = frf1_uniformised();
    run_kernel(state, linalg::kernel_mode(), [&](const auto&, const auto& x, auto& y) {
        linalg::uniformised_multiply_right(p, x, y);
    });
}
void BM_UniformisedLeftOnTheFly(benchmark::State& state) {
    run_kernel(state, linalg::kernel_mode(), [](const auto& m, const auto& x, auto& y) {
        linalg::uniformised_multiply_left(m, 100.0, x, y);
    });
}

BENCHMARK_CAPTURE(BM_MatvecLeft, scalar, linalg::KernelMode::Scalar);
BENCHMARK_CAPTURE(BM_MatvecLeft, blocked, linalg::KernelMode::Blocked);
BENCHMARK_CAPTURE(BM_MatvecLeft, simd, linalg::KernelMode::Simd);
BENCHMARK_CAPTURE(BM_MatvecRight, scalar, linalg::KernelMode::Scalar);
BENCHMARK_CAPTURE(BM_MatvecRight, blocked, linalg::KernelMode::Blocked);
BENCHMARK_CAPTURE(BM_MatvecRight, simd, linalg::KernelMode::Simd);
BENCHMARK(BM_UniformisedLeft);
BENCHMARK(BM_UniformisedRight);
BENCHMARK(BM_UniformisedLeftOnTheFly);

// ---------------------------------------------------------------------------
// One survivability series cell end to end: line-1 FRF-1, individual
// encoding (111809 states), Disaster 1, service >= 1/3 on the Fig 4 grid
// {0, 0.05, ..., 4.5} through bounded_until_series.  The cell is one
// uniformisation pass: `steps` powers of P, the right Fox–Glynn point of
// the grid's last time, for all 91 points.
// ---------------------------------------------------------------------------

void BM_SurvivabilityCellFig4(benchmark::State& state) {
    bench::stamp_build_type(state);
    const auto model = bench::compile_individual(wt::line1(wt::strategy("FRF-1")));
    const auto initial = model->disaster_distribution(wt::disaster1(model->model()));
    const std::vector<bool> phi(model->state_count(), true);
    const std::vector<bool> psi = model->service_at_least(1.0 / 3.0);
    const std::vector<double> times = arcade::time_grid(4.5, 91);
    double last = 0.0;
    for (auto _ : state) {
        last = ctmc::bounded_until_series(model->chain(), initial, phi, psi, times,
                                          bench::transient())
                   .back();
        benchmark::DoNotOptimize(last);
    }
    const double lambda = linalg::uniformisation_rate(model->chain().max_exit_rate(psi));
    state.counters["states"] = static_cast<double>(model->state_count());
    state.counters["grid_points"] = static_cast<double>(times.size());
    state.counters["steps"] =
        static_cast<double>(ctmc::SeriesGrid(lambda, times, 1e-12).steps());
    state.counters["survivability"] = last;
}

BENCHMARK(BM_SurvivabilityCellFig4)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: unless --benchmark_out is given, results land in a temp JSON
// whose benchmark entries are appended into BENCH_engine.json, so the eval
// rows ride the same perf-trajectory file as the engine benchmarks.
int main(int argc, char** argv) {
    bench::warn_if_not_release();
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
            std::strcmp(argv[i], "--benchmark_out") == 0) {
            has_out = true;
        }
    }
    static char out_flag[] = "--benchmark_out=BENCH_eval.tmp.json";
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
        if (bench::merge_benchmarks("BENCH_engine.json", "BENCH_eval.tmp.json",
                                    bench::build_type())) {
            std::remove("BENCH_eval.tmp.json");
            std::printf("merged eval rows into BENCH_engine.json\n");
        } else {
            std::printf("left results in BENCH_eval.tmp.json (no merge target)\n");
        }
    }
    return 0;
}
