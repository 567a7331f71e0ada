// arcade_sweep — the paper's whole evaluation as ONE declarative scenario
// grid (sweep::paper::everything()).
//
// A single ScenarioGrid spans (both lines) × (all five repair strategies) ×
// (availability + the six figure measures with their time grids).  The
// sweep runner expands it to 60 scenarios over 10 compiled models,
// funnels everything through one AnalysisSession, and this driver
// renders the paper's Table 2 availability column and the Figure 8
// survivability grid from the results — plus cache-hit and states/sec
// counters, and optional CSV/JSON export:
//
//   arcade_sweep [--threads N] [--csv out.csv] [--json out.json]
//                [--shard i/n] [--csv-footer] [--mttr-sweep] [--properties]
//                [--pump-scaling N] [--list]
//
// Every model compiles under ReductionPolicy::Auto: an individual model is
// explored on the lumped encoding when one exists, and its scenarios are
// analysed on that chain (README, "The reduction layer").  --mttr-sweep
// swaps the paper grid for the MTTR-sensitivity study (repair rates scaled
// ±50% around the paper's values via ScenarioGrid::parameters) and renders
// its tables instead; --properties swaps in sweep::paper::properties() —
// the same evaluation with every measure expressed as a CSL/CSRL formula
// (watertree::properties), checked through the session.
//
// --pump-scaling N swaps in the state-space scaling study (0..N spare pumps
// per line) and renders its Table-1-style report, the explored lumped
// chains against the full sizes summed in closed form.  --list prints the
// expanded, deduplicated work list (item index, model variant, measure) of
// whatever grid the other flags select and exits without running anything.
//
// --shard i/n runs only the i-th of n contiguous slices of the expanded
// work list (1-based).  Slices are deterministic, disjoint and exhaustive;
// only shard 1 writes the CSV header, so concatenating the n per-shard CSV
// files in shard order reproduces the unsharded CSV byte-for-byte (sharded
// runs therefore ignore --csv-footer: per-shard footers would interleave
// comment lines mid-file).  Sharded runs skip the human-readable
// table/figure rendering (their cells may live in other shards) and are
// meant to be driven for their CSV/JSON output.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "arcade/measures.hpp"
#include "support/series.hpp"
#include "sweep/sweep.hpp"

namespace core = arcade::core;
namespace sweep = arcade::sweep;

namespace {

/// Writes one export file through `emit` and prints "# wrote PATH".  When
/// the file cannot be opened, written or closed it prints an error instead
/// and returns false.
template <typename Emit>
bool write_file(const std::string& path, const Emit& emit) {
    std::ofstream out(path);
    if (out) {
        emit(out);
        out.close();
    }
    if (!out) {
        std::cerr << "arcade_sweep: cannot write '" << path << "'\n";
        return false;
    }
    std::cout << "# wrote " << path << "\n";
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    unsigned threads = 0;
    std::string csv_path;
    std::string json_path;
    sweep::ShardSpec shard;
    bool csv_footer = false;
    bool mttr_sweep = false;
    bool properties_sweep = false;
    bool list_only = false;
    int pump_scaling = -1;  // <0: not requested
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--threads" && has_value) {
            const auto count = sweep::parse_count(argv[++i]);
            if (!count) {
                std::cerr << "arcade_sweep: --threads needs a number, got '" << argv[i]
                          << "'\n";
                return 2;
            }
            threads = static_cast<unsigned>(*count);
        } else if (arg == "--csv" && has_value) {
            csv_path = argv[++i];
        } else if (arg == "--json" && has_value) {
            json_path = argv[++i];
        } else if (arg == "--shard" && has_value) {
            try {
                shard = sweep::ShardSpec::parse(argv[++i]);
            } catch (const std::exception& e) {
                std::cerr << "arcade_sweep: " << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--csv-footer") {
            csv_footer = true;
        } else if (arg == "--mttr-sweep") {
            mttr_sweep = true;
        } else if (arg == "--properties") {
            properties_sweep = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--pump-scaling" && has_value) {
            const auto count = sweep::parse_count(argv[++i]);
            if (!count) {
                std::cerr << "arcade_sweep: --pump-scaling needs a non-negative "
                             "number of extra pumps, got '" << argv[i] << "'\n";
                return 2;
            }
            pump_scaling = static_cast<int>(*count);
        } else {
            std::cerr << "usage: arcade_sweep [--threads N] [--csv PATH] [--json PATH] "
                         "[--shard i/n] [--csv-footer] [--mttr-sweep] [--properties] "
                         "[--pump-scaling N] [--list]\n";
            return 2;
        }
    }

    using sweep::DisasterKind;
    using sweep::MeasureKind;
    if (static_cast<int>(mttr_sweep) + static_cast<int>(properties_sweep) +
            static_cast<int>(pump_scaling >= 0) > 1) {
        std::cerr << "arcade_sweep: --mttr-sweep, --properties and --pump-scaling "
                     "are exclusive\n";
        return 2;
    }
    const auto grid =
        mttr_sweep         ? sweep::studies::mttr_sensitivity()
        : properties_sweep ? sweep::paper::properties()
        : pump_scaling >= 0
            ? sweep::studies::pump_scaling(static_cast<std::size_t>(pump_scaling))
            : sweep::paper::everything();

    if (list_only) {
        const auto items = sweep::shard_slice(sweep::expand(grid), shard);
        for (const auto& item : items) {
            std::cout << item.index << "\t" << item.model_key() << "\t"
                      << sweep::to_string(item.measure.kind) << "\n";
        }
        std::cout << "# " << items.size() << " work items\n";
        return 0;
    }

    arcade::engine::AnalysisSession session;
    sweep::SweepRunner runner(session, {threads, shard, core::ReductionPolicy::Auto});
    const auto report = runner.run(grid);

    if (shard.is_sharded()) {
        // A shard holds an arbitrary slice of the grid: the table/figure
        // renderings below need cells that may live in other shards.
        std::cout << "# shard " << shard.index << "/" << shard.count << ": "
                  << report.results.size() << " of " << sweep::expand(grid).size()
                  << " work items\n";
    } else if (mttr_sweep) {
        sweep::studies::render_mttr_sensitivity(report, grid, std::cout);
    } else if (pump_scaling >= 0) {
        sweep::studies::render_pump_scaling(report, grid, std::cout);
    } else if (properties_sweep) {
        sweep::paper::render_properties(report, grid, std::cout);
    } else {
        // --- Table 2, availability column ---------------------------------
        std::cout << "=== Sweep: Table 2 availability (from the declarative grid) ===\n";
        arcade::Table table({"Strategy", "Line 1", "Line 2", "Combined"});
        char buf[64];
        for (const auto& name : grid.strategies) {
            const auto* a1 =
                sweep::paper::find(report, 1, name, MeasureKind::Availability, DisasterKind::None, 1.0);
            const auto* a2 =
                sweep::paper::find(report, 2, name, MeasureKind::Availability, DisasterKind::None, 1.0);
            if (a1 == nullptr || a2 == nullptr) {
                std::cerr << "missing availability cell for " << name << "\n";
                return 1;
            }
            std::vector<std::string> cells{name};
            std::snprintf(buf, sizeof buf, "%.7f", a1->values.front());
            cells.emplace_back(buf);
            std::snprintf(buf, sizeof buf, "%.7f", a2->values.front());
            cells.emplace_back(buf);
            std::snprintf(buf, sizeof buf, "%.7f",
                          core::combined_availability(a1->values.front(),
                                                      a2->values.front()));
            cells.emplace_back(buf);
            table.add_row(std::move(cells));
        }
        table.print(std::cout);

        // --- Figure 8 grid (survivability, Line 2, Disaster 2, X1) --------
        std::cout << "\n";
        arcade::Figure fig("Figure 8 (via sweep): survivability Line 2, Disaster 2, X1",
                           "t in hours", "Probability (S)");
        const double x1 = 1.0 / 3.0;
        bool have_times = false;
        for (const auto& name : grid.strategies) {
            const auto* r =
                sweep::paper::find(report, 2, name, MeasureKind::Survivability, DisasterKind::Mixed, x1);
            if (r == nullptr) {
                std::cerr << "missing survivability cell for " << name << "\n";
                return 1;
            }
            if (!have_times) {
                fig.set_times(r->item.measure.times);
                have_times = true;
            }
            fig.add_series(name, r->values);
        }
        fig.print(std::cout);
    }

    // --- Counters ---------------------------------------------------------
    char buf[64];
    std::cout << "\n# sweep: " << report.results.size() << " scenarios over "
              << report.unique_models << " compiled models\n"
              << "# cache: " << report.stats.compile_hits << " compile hits / "
              << report.stats.compile_misses << " misses, "
              << report.stats.steady_state_hits << " steady-state hits / "
              << report.stats.steady_state_misses << " misses  (hit rate ";
    std::snprintf(buf, sizeof buf, "%.3f", report.cache_hit_rate());
    std::cout << buf << ")\n";
    std::cout << "# throughput: " << report.state_points
              << " state-points in ";
    std::snprintf(buf, sizeof buf, "%.3f", report.wall_seconds);
    std::cout << buf << " s (";
    std::snprintf(buf, sizeof buf, "%.3g", report.states_per_second());
    std::cout << buf << " states/sec)\n";

    if (!csv_path.empty()) {
        sweep::CsvOptions options;
        options.header = shard.index == 1;  // later shards concatenate after shard 1
        // A per-shard footer would interleave comment lines mid-file and
        // break the byte-identical concatenation guarantee.
        options.footer = csv_footer && !shard.is_sharded();
        if (!write_file(csv_path, [&](std::ostream& out) {
                sweep::write_csv(report, grid, out, options);
            })) {
            return 1;
        }
    }
    if (!json_path.empty() &&
        !write_file(json_path, [&](std::ostream& out) { sweep::write_json(report, grid, out); })) {
        return 1;
    }
    return report.cache_hit_rate() > 0.0 ? 0 : 1;
}
