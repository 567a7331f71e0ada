// Batched multi-vector series evaluation vs sequential single-vector
// passes, on the paper's Line-2 individual encoding (8129 states, the chain
// behind the Disaster-2 figures) over the Figs 4–6 time grid.
//
// Each width-w pair answers the fusion pass's core question: is ONE
// ctmc::functional_series_batch pass over a w-column block faster than w
// independent ctmc::functional_series passes over the same grid?  Both read
// the instantaneous cost rate off every power of P.  The batch amortises
// each traversal of the uniformised matrix across the block while keeping
// every column bitwise identical to its sequential twin (asserted by
// test_ctmc / test_linalg), so the speedup here is pure bandwidth — no
// accuracy is traded.  Width 1 measures the batch engine's overhead on
// degenerate blocks (the reason singleton groups are demoted to the solo
// path in sweep::SweepRunner).
//
// Results are MERGED into BENCH_engine.json (the perf trajectory file the
// engine benchmarks write): the run lands in a temp JSON first and its
// benchmark entries replace same-(bench, build, commit) rows in place —
// see bench_json.hpp.  --benchmark_out overrides as usual.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "ctmc/transient.hpp"
#include "ctmc/transient_batch.hpp"
#include "linalg/vector_ops.hpp"
#include "support/series.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace ctmc = arcade::ctmc;
namespace linalg = arcade::linalg;
namespace wt = arcade::watertree;

namespace {

const bench::ModelPtr& line2_frf1() {
    static const bench::ModelPtr model =
        bench::compile_individual(wt::line2(wt::strategy("FRF-1")));
    return model;
}

/// The Figs 4–6 grid: {0, 0.05, ..., 4.5}.
const std::vector<double>& grid() {
    static const std::vector<double> times = arcade::time_grid(4.5, 91);
    return times;
}

/// The instantaneous cost rate, the functional both halves read per power.
double cost_rate(std::span<const double> dist) {
    return linalg::dot(dist, line2_frf1()->cost_reward().state_rates());
}

/// Evolved state-points per iteration: states × columns × powers of P (the
/// grid's last right Fox–Glynn point, plus P^0), the common work unit of
/// both harness halves (reported as col_states/s).
double work(const ctmc::Ctmc& chain, std::size_t width) {
    const ctmc::SeriesGrid series(ctmc::uniformise(chain).lambda, grid(), 1e-12);
    return static_cast<double>(chain.state_count()) * static_cast<double>(width) *
           static_cast<double>(series.steps() + 1);
}

void BM_TransientSequential(benchmark::State& state, std::size_t width) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1();
    const auto initial = model->disaster_distribution(wt::disaster2());
    double sink = 0.0;
    for (auto _ : state) {
        // Each pass uniformises the chain, as every per-cell measure does.
        for (std::size_t c = 0; c < width; ++c) {
            sink += ctmc::functional_series(ctmc::uniformise(model->chain()), initial, grid(),
                                            ctmc::SeriesForm::Instantaneous, cost_rate,
                                            bench::transient())
                        .back();
        }
        benchmark::DoNotOptimize(sink);
    }
    state.counters["states"] = static_cast<double>(model->state_count());
    state.counters["width"] = static_cast<double>(width);
    state.counters["col_states/s"] = benchmark::Counter(
        work(model->chain(), width), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_TransientBatched(benchmark::State& state, std::size_t width) {
    bench::stamp_build_type(state);
    const auto& model = line2_frf1();
    const std::vector<std::vector<double>> columns(
        width, model->disaster_distribution(wt::disaster2()));
    double sink = 0.0;
    for (auto _ : state) {
        sink += ctmc::functional_series_batch(model->chain(), columns, grid(),
                                              ctmc::SeriesForm::Instantaneous, cost_rate,
                                              bench::transient())
                    .front()
                    .back();
        benchmark::DoNotOptimize(sink);
    }
    state.counters["states"] = static_cast<double>(model->state_count());
    state.counters["width"] = static_cast<double>(width);
    state.counters["col_states/s"] = benchmark::Counter(
        work(model->chain(), width), benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK_CAPTURE(BM_TransientSequential, l2_w1, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TransientBatched, l2_w1, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TransientSequential, l2_w2, 2)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TransientBatched, l2_w2, 2)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TransientSequential, l2_w4, 4)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TransientBatched, l2_w4, 4)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TransientSequential, l2_w8, 8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TransientBatched, l2_w8, 8)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: unless --benchmark_out is given, results land in a temp JSON
// whose benchmark entries are merged into BENCH_engine.json, so the batch
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
    static char out_flag[] = "--benchmark_out=BENCH_batch.tmp.json";
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
        if (bench::merge_benchmarks("BENCH_engine.json", "BENCH_batch.tmp.json",
                                    bench::build_type())) {
            std::remove("BENCH_batch.tmp.json");
            std::printf("merged batch rows into BENCH_engine.json\n");
        } else {
            std::printf("left results in BENCH_batch.tmp.json (no merge target)\n");
        }
    }
    return 0;
}
