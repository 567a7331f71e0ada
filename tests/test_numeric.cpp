// Unit tests: Fox–Glynn Poisson weights and the iterative linear solvers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "arcade/compiler.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "numeric/fox_glynn.hpp"
#include "numeric/linear_solvers.hpp"
#include "support/errors.hpp"
#include "watertree/watertree.hpp"

namespace num = arcade::numeric;
namespace la = arcade::linalg;

namespace {

/// Reference Poisson pmf e^{-q} q^k / k!, numerically stable via logs.
double poisson_pmf(double q, std::size_t k) {
    if (q == 0.0) return k == 0 ? 1.0 : 0.0;
    const double log_p =
        -q + static_cast<double>(k) * std::log(q) - std::lgamma(static_cast<double>(k) + 1.0);
    return std::exp(log_p);
}

}  // namespace

TEST(FoxGlynn, DegenerateAtZeroRate) {
    const auto w = num::fox_glynn(0.0, 1e-12);
    EXPECT_EQ(w.left, 0u);
    EXPECT_EQ(w.right, 0u);
    EXPECT_DOUBLE_EQ(w.weight(0), 1.0);
}

// Property sweep: weights match the exact pmf and sum to ~1 across many rates.
class FoxGlynnSweep : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnSweep, WeightsMatchExactPmf) {
    const double q = GetParam();
    const auto w = num::fox_glynn(q, 1e-12);
    double total = 0.0;
    for (std::size_t k = w.left; k <= w.right; ++k) {
        const double exact = poisson_pmf(q, k);
        EXPECT_NEAR(w.weight(k), exact, 1e-12 + 1e-9 * exact) << "q=" << q << " k=" << k;
        total += w.weight(k);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    // window covers the requested mass
    EXPECT_GE(w.total_before_norm, 1.0 - 1e-10);
}

TEST_P(FoxGlynnSweep, WindowContainsTheMode) {
    const double q = GetParam();
    const auto w = num::fox_glynn(q, 1e-12);
    const std::size_t mode = static_cast<std::size_t>(q);
    EXPECT_LE(w.left, mode);
    EXPECT_GE(w.right, mode);
}

INSTANTIATE_TEST_SUITE_P(Rates, FoxGlynnSweep,
                         ::testing::Values(0.01, 0.5, 1.0, 4.2, 25.0, 100.0, 1000.0, 10000.0));

TEST(FoxGlynn, LargeRateCapturesRequestedMass) {
    // Regression: the widening loop used to give up at a fixed width and
    // silently return under-covering weights once q·t grew large.
    for (double q : {1.0e5, 1.0e6, 2.0e7}) {
        const auto w = num::fox_glynn(q, 1e-12);
        EXPECT_GE(w.total_before_norm, 1.0 - 1e-12) << "q=" << q;
        double total = 0.0;
        for (double x : w.weights) total += x;
        EXPECT_NEAR(total, 1.0, 1e-9) << "q=" << q;
    }
}

TEST(PoissonPmf, MatchesDirectFormulaForSmallK) {
    EXPECT_NEAR(poisson_pmf(2.0, 0), std::exp(-2.0), 1e-15);
    EXPECT_NEAR(poisson_pmf(2.0, 1), 2.0 * std::exp(-2.0), 1e-15);
    EXPECT_NEAR(poisson_pmf(2.0, 2), 2.0 * std::exp(-2.0), 1e-15);
}

TEST(PoissonPmf, NoUnderflowAtLargeRate) {
    // Naive e^-q * q^k/k! underflows at q=2000; the log form must not.
    const double p = poisson_pmf(2000.0, 2000);
    EXPECT_GT(p, 0.0);
    EXPECT_NEAR(p, 1.0 / std::sqrt(2 * M_PI * 2000.0), 1e-5);  // Stirling
}

namespace {

/// Two-state availability chain: fail rate l, repair rate m.
la::CsrMatrix two_state(double l, double m) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, l);
    b.add(1, 0, m);
    return b.build();
}

}  // namespace

TEST(SteadyStateSolvers, TwoStateClosedForm) {
    const double l = 1.0 / 500.0;
    const double m = 1.0;
    const auto rates = two_state(l, m);
    std::vector<double> pi(2, 0.0);
    num::steady_state_gauss_seidel(rates, pi);
    EXPECT_NEAR(pi[0], m / (l + m), 1e-10);
    EXPECT_NEAR(pi[1], l / (l + m), 1e-10);

    std::vector<double> pi2(2, 0.0);
    num::steady_state_power(rates, pi2);
    EXPECT_NEAR(pi2[0], m / (l + m), 1e-8);
}

TEST(SteadyStateSolvers, BirthDeathChainClosedForm) {
    // M/M/1/4 queue: arrival 1, service 2 => pi_k ~ (1/2)^k.
    const int n = 5;
    la::CsrBuilder b(n, n);
    for (int i = 0; i + 1 < n; ++i) {
        b.add(i, i + 1, 1.0);
        b.add(i + 1, i, 2.0);
    }
    std::vector<double> pi(n, 0.0);
    num::steady_state_gauss_seidel(b.build(), pi);
    double norm = 0.0;
    for (int k = 0; k < n; ++k) norm += std::pow(0.5, k);
    for (int k = 0; k < n; ++k) {
        EXPECT_NEAR(pi[k], std::pow(0.5, k) / norm, 1e-10) << "k=" << k;
    }
}

TEST(FixpointSolver, SolvesGamblersRuin) {
    // x_i = 0.5 x_{i-1} + 0.5 x_{i+1}, absorbing at 0 (loss) and 3 (win);
    // b contributes the win transition: from state index i in {1,2}
    // (interior), P(win) = i/3.
    la::CsrBuilder a(2, 2);     // interior states 1,2 -> local 0,1
    a.add(0, 1, 0.5);           // 1 -> 2
    a.add(1, 0, 0.5);           // 2 -> 1
    std::vector<double> b{0.0, 0.5};  // 2 -> win
    std::vector<double> x(2, 0.0);
    num::fixpoint_gauss_seidel(a.build(), b, x);
    EXPECT_NEAR(x[0], 1.0 / 3.0, 1e-10);
    EXPECT_NEAR(x[1], 2.0 / 3.0, 1e-10);
}

TEST(FixpointSolver, HandlesDiagonalEntries) {
    // x = 0.5 x + 0.25  =>  x = 0.5
    la::CsrBuilder a(1, 1);
    a.add(0, 0, 0.5);
    std::vector<double> b{0.25};
    std::vector<double> x(1, 0.0);
    num::fixpoint_gauss_seidel(a.build(), b, x);
    EXPECT_NEAR(x[0], 0.5, 1e-12);
}

TEST(FoxGlynnCache, CachedWeightsAreTheUncachedWeightsExactly) {
    // The cache stores the result of the very computation fox_glynn() runs,
    // so a cached lookup must be indistinguishable — same window, same
    // weights bit for bit, same total — from calling fox_glynn() directly.
    num::fox_glynn_cache_clear();
    const double q = 37.25;
    const double epsilon = 1e-12;
    const auto direct = num::fox_glynn(q, epsilon);
    const auto cached = num::fox_glynn_cached(q, epsilon);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->left, direct.left);
    EXPECT_EQ(cached->right, direct.right);
    ASSERT_EQ(cached->weights.size(), direct.weights.size());
    for (std::size_t k = 0; k < direct.weights.size(); ++k) {
        EXPECT_EQ(cached->weights[k], direct.weights[k]) << k;
    }
    EXPECT_EQ(cached->total_before_norm, direct.total_before_norm);
}

TEST(FoxGlynnCache, HitsAndMissesAreCountedAndSharedAcrossCallers) {
    num::fox_glynn_cache_clear();
    const auto before = num::fox_glynn_cache_stats();
    EXPECT_EQ(before.hits, 0u);
    EXPECT_EQ(before.misses, 0u);

    const auto first = num::fox_glynn_cached(12.5, 1e-12);   // miss
    const auto second = num::fox_glynn_cached(12.5, 1e-12);  // hit, same object
    EXPECT_EQ(first.get(), second.get());
    const auto other = num::fox_glynn_cached(12.5, 1e-10);   // different epsilon: miss
    EXPECT_NE(first.get(), other.get());

    const auto after = num::fox_glynn_cache_stats();
    EXPECT_EQ(after.misses, 2u);
    EXPECT_EQ(after.hits, 1u);

    num::fox_glynn_cache_clear();
    const auto cleared = num::fox_glynn_cache_stats();
    EXPECT_EQ(cleared.hits, 0u);
    EXPECT_EQ(cleared.misses, 0u);
}

// ---------------------------------------------------------------------------
// Bitwise oracle for the Gauss–Seidel sweeps.  The solvers sweep diagonal-
// free rows built once with an inline dot product; the references below are
// the earlier per-row scalar gathers (incoming edges kept WITH the diagonal
// and skipped entry by entry, the fixpoint diagonal captured row by row).
// Both sum in ascending index order with one accumulator, so pi, x, the
// iteration count and the final error must agree to the bit.
// ---------------------------------------------------------------------------

namespace {

namespace core = arcade::core;
namespace watertree = arcade::watertree;

double criterion(double newv, double oldv, bool relative) {
    const double diff = std::abs(newv - oldv);
    if (!relative) return diff;
    return diff / std::max(std::abs(newv), 1e-300);
}

struct SolveRun {
    bool threw = false;
    num::SolverResult result;
    std::vector<double> x;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_run(const SolveRun& got, const SolveRun& want, const std::string& what) {
    EXPECT_EQ(got.threw, want.threw) << what;
    EXPECT_EQ(got.result.iterations, want.result.iterations) << what;
    if (!want.threw) {  // a ConvergenceError carries no SolverResult
        EXPECT_TRUE(same_bits(got.result.final_error, want.result.final_error)) << what;
    }
    ASSERT_EQ(got.x.size(), want.x.size()) << what;
    EXPECT_EQ(std::memcmp(got.x.data(), want.x.data(), got.x.size() * sizeof(double)), 0)
        << what;
}

/// The earlier steady-state sweep: incoming[j] holds (i, rate(i,j)) for every
/// stored entry, diagonal included, and the gather skips j itself.
SolveRun reference_steady(const la::CsrMatrix& rates, const num::SolverOptions& options) {
    const std::size_t n = rates.rows();
    std::vector<std::vector<std::pair<std::size_t, double>>> incoming(n);
    std::vector<double> exit_rate(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto cols = rates.row_columns(i);
        const auto vals = rates.row_values(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            incoming[cols[k]].emplace_back(i, vals[k]);
            if (cols[k] != i) exit_rate[i] += vals[k];
        }
    }
    SolveRun run;
    run.x.assign(n, 1.0 / static_cast<double>(n));
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        double worst = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (exit_rate[j] <= 0.0) continue;
            double inflow = 0.0;
            for (const auto& [i, v] : incoming[j]) {
                if (i != j) inflow += v * run.x[i];
            }
            const double newv = inflow / exit_rate[j];
            worst = std::max(worst, criterion(newv, run.x[j], options.relative));
            run.x[j] = newv;
        }
        run.result.iterations = it + 1;
        run.result.final_error = worst;
        if (worst < options.epsilon) {
            la::normalize(run.x);
            return run;
        }
    }
    run.threw = true;
    return run;
}

/// The earlier fixpoint sweep: each row's diagonal captured while gathering.
SolveRun reference_fixpoint(const la::CsrMatrix& a, const std::vector<double>& b,
                       const num::SolverOptions& options) {
    const std::size_t n = a.rows();
    SolveRun run;
    run.x.assign(n, 0.0);
    for (std::size_t it = 0; it < options.max_iterations; ++it) {
        double worst = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto cols = a.row_columns(i);
            const auto vals = a.row_values(i);
            double diag = 0.0;
            double acc = b[i];
            for (std::size_t k = 0; k < cols.size(); ++k) {
                if (cols[k] == i) {
                    diag = vals[k];
                } else {
                    acc += vals[k] * run.x[cols[k]];
                }
            }
            const double newv = acc / (1.0 - diag);
            worst = std::max(worst, criterion(newv, run.x[i], options.relative));
            run.x[i] = newv;
        }
        run.result.iterations = it + 1;
        run.result.final_error = worst;
        if (worst < options.epsilon) return run;
    }
    run.threw = true;
    return run;
}

SolveRun library_steady(const la::CsrMatrix& rates, const num::SolverOptions& options) {
    SolveRun run;
    run.x.assign(rates.rows(), 0.0);
    try {
        run.result = num::steady_state_gauss_seidel(rates, run.x, options);
    } catch (const arcade::ConvergenceError&) {
        run.threw = true;
        run.result.iterations = options.max_iterations;
    }
    return run;
}

SolveRun library_fixpoint(const la::CsrMatrix& a, const std::vector<double>& b,
                     const num::SolverOptions& options) {
    SolveRun run;
    run.x.assign(a.rows(), 0.0);
    try {
        run.result = num::fixpoint_gauss_seidel(a, b, run.x, options);
    } catch (const arcade::ConvergenceError&) {
        run.threw = true;
        run.result.iterations = options.max_iterations;
    }
    return run;
}

/// Random rates over n states: every fifth row absorbing (empty, or only a
/// stored diagonal), the others 1–9 off-diagonal entries, half of them with
/// a stored (generator-style negative) diagonal.
la::CsrMatrix random_chain(std::size_t n, std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> len(1, 9);
    std::uniform_int_distribution<std::size_t> target(0, n - 1);
    std::uniform_real_distribution<double> rate(0.01, 3.0);
    la::CsrBuilder b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 5 == 3) {
            if (i % 2 == 0) b.add(i, i, -0.0);
            continue;
        }
        double exit = 0.0;
        for (std::size_t k = len(rng); k > 0; --k) {
            std::size_t j = target(rng);
            if (j == i) j = (j + 1) % n;
            const double r = rate(rng);
            b.add(i, j, r);
            exit += r;
        }
        if (i % 2 == 1) b.add(i, i, -exit);
    }
    return b.build();
}

core::CompiledModel line2_frf2() {
    core::CompileOptions options;
    options.encoding = core::Encoding::Individual;
    options.reduction = core::ReductionPolicy::Off;
    return core::compile(watertree::line(2, watertree::strategy("FRF-2")), options);
}

}  // namespace

TEST(GaussSeidelOracle, SteadyStateMatchesTheScalarGatherOnLine2Frf2) {
    const auto model = line2_frf2();
    ASSERT_EQ(model.state_count(), 8129u);
    const num::SolverOptions options;
    const SolveRun want = reference_steady(model.chain().rates(), options);
    ASSERT_FALSE(want.threw);
    expect_same_run(library_steady(model.chain().rates(), options), want, "line-2 FRF-2");
}

TEST(GaussSeidelOracle, SteadyStateMatchesTheScalarGatherOnRandomChains) {
    std::mt19937_64 rng(0x65a5);
    for (const std::size_t n : {std::size_t{1}, std::size_t{6}, std::size_t{40},
                                std::size_t{151}}) {
        const la::CsrMatrix rates = random_chain(n, rng);
        for (const bool relative : {true, false}) {
            num::SolverOptions options;
            options.relative = relative;
            options.max_iterations = 3000;
            const std::string what =
                "n=" + std::to_string(n) + (relative ? " relative" : " absolute");
            expect_same_run(library_steady(rates, options), reference_steady(rates, options),
                            what);
        }
    }
}

TEST(GaussSeidelOracle, FixpointMatchesTheScalarGatherOnReachability) {
    // Reach a state below full service on line 2 FRF-2: the embedded DTMC
    // restricted to the full-service states (every state reaches the
    // target, so the system is non-singular).
    const auto model = line2_frf2();
    const auto& rates = model.chain().rates();
    const std::vector<bool> full = model.service_at_least(1.0);
    std::vector<std::size_t> local(rates.rows(), rates.rows());
    std::size_t m = 0;
    for (std::size_t s = 0; s < rates.rows(); ++s) {
        if (full[s]) local[s] = m++;
    }
    ASSERT_GT(m, 1u);
    la::CsrBuilder ab(m, m);
    std::vector<double> b(m, 0.0);
    for (std::size_t s = 0; s < rates.rows(); ++s) {
        if (!full[s]) continue;
        const double exit = model.chain().exit_rate(s);
        const auto cols = rates.row_columns(s);
        const auto vals = rates.row_values(s);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == s) continue;
            if (full[cols[k]]) {
                ab.add(local[s], local[cols[k]], vals[k] / exit);
            } else {
                b[local[s]] += vals[k] / exit;
            }
        }
    }
    const la::CsrMatrix a = ab.build();
    const num::SolverOptions options;
    const SolveRun want = reference_fixpoint(a, b, options);
    ASSERT_FALSE(want.threw);
    expect_same_run(library_fixpoint(a, b, options), want, "line-2 FRF-2 reachability");
}

TEST(GaussSeidelOracle, FixpointMatchesTheScalarGatherWithStoredDiagonals) {
    // Sub-stochastic rows (mass 0.9) that put a share on their own diagonal.
    std::mt19937_64 rng(0xf1c5);
    std::uniform_real_distribution<double> share(0.05, 1.0);
    for (const std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{64}}) {
        std::uniform_int_distribution<std::size_t> target(0, n - 1);
        la::CsrBuilder ab(n, n);
        std::vector<double> b(n);
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::pair<std::size_t, double>> row;
            double total = 0.0;
            for (std::size_t k = i % 7; k > 0; --k) {
                row.emplace_back(target(rng), share(rng));
                total += row.back().second;
            }
            const double diag = i % 3 == 0 ? 0.0 : share(rng);
            const double bi = share(rng);
            const double scale = 0.9 / (total + diag + bi);
            for (const auto& [j, w] : row) {
                if (j != i) ab.add(i, j, w * scale);
            }
            if (diag > 0.0) ab.add(i, i, diag * scale);
            b[i] = bi * scale;
        }
        const la::CsrMatrix a = ab.build();
        for (const bool relative : {true, false}) {
            num::SolverOptions options;
            options.relative = relative;
            const std::string what =
                "n=" + std::to_string(n) + (relative ? " relative" : " absolute");
            const SolveRun want = reference_fixpoint(a, b, options);
            ASSERT_FALSE(want.threw) << what;
            expect_same_run(library_fixpoint(a, b, options), want, what);
        }
    }
}
