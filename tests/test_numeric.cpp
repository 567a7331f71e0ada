// Unit tests: Fox–Glynn Poisson weights and the iterative linear solvers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arcade/compiler.hpp"
#include "engine/session.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "logic/csl.hpp"
#include "numeric/fox_glynn.hpp"
#include "numeric/linear_solvers.hpp"
#include "support/errors.hpp"
#include "sweep/sweep.hpp"
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

namespace {

/// The message of the InvalidArgument fox_glynn throws for `q`, or "none".
std::string invalid_rate_message(double q) {
    try {
        (void)num::fox_glynn(q, 1e-12);
    } catch (const arcade::InvalidArgument& e) {
        return e.what();
    }
    return "none";
}

}  // namespace

TEST(FoxGlynn, RatesThatAreNotFiniteThrowInvalidArgumentNamingQ) {
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(invalid_rate_message(inf),
              "fox_glynn: Poisson rate q=inf is not finite or not below 2^53");
    EXPECT_EQ(invalid_rate_message(-inf),
              "fox_glynn: Poisson rate q=-inf is not finite or not below 2^53");
    EXPECT_EQ(invalid_rate_message(std::numeric_limits<double>::quiet_NaN()),
              "fox_glynn: Poisson rate q=nan is not finite or not below 2^53");
}

TEST(FoxGlynn, RatesFromTwoToThe53ThrowInvalidArgumentNamingQ) {
    // Cast to size_t, a q past 2^64 used to collapse the window to {0}, so a
    // CSL time bound of 1e20 read the value at t = 0.
    for (const auto& [q, text] : std::vector<std::pair<double, std::string>>{
             {0x1p53, "9007199254740992"},
             {1e20, "1e+20"},
             {1e100, "1e+100"},
             {1.7e308, "1.6999999999999999e+308"}}) {
        EXPECT_EQ(invalid_rate_message(q),
                  "fox_glynn: Poisson rate q=" + text + " is not finite or not below 2^53")
            << text;
    }
    arcade::engine::AnalysisSession session;
    const auto model = arcade::watertree::compile_line(
        session, 2, arcade::watertree::strategy("DED"), arcade::core::Encoding::Lumped);
    ASSERT_EQ(model->chain().state_count(), 96u);
    for (const char* bound : {"1e20", "1e100", "1.7e308"}) {
        EXPECT_THROW((void)arcade::logic::check(
                         model->chain(), std::string("P=? [ true U<=") + bound + " \"down\" ]"),
                     arcade::InvalidArgument)
            << bound;
    }
}

namespace {

/// fox_glynn as it stood when every widening attempt reallocated its window
/// and reran both recurrences from the mode: the reference the kept
/// routine, which extends two chains across attempts, must match bit for
/// bit.
num::PoissonWeights fox_glynn_per_attempt(double q, double epsilon) {
    num::PoissonWeights out;
    if (q == 0.0) {
        out.left = out.right = 0;
        out.weights = {1.0};
        out.total_before_norm = 1.0;
        return out;
    }
    const double mode = std::floor(q);
    const double sd = std::sqrt(q);
    for (double widths = 5.0;; widths *= 1.5) {
        const double lo = mode - widths * sd - 4.0;
        const double hi = mode + widths * sd + 4.0;
        const std::size_t left = lo > 0.0 ? static_cast<std::size_t>(lo) : 0;
        const std::size_t right = static_cast<std::size_t>(hi);
        const std::size_t m = static_cast<std::size_t>(mode);
        std::vector<double> w(right - left + 1, 0.0);
        w[m - left] = 1.0;
        for (std::size_t k = m; k > left; --k) {
            w[k - 1 - left] = w[k - left] * static_cast<double>(k) / q;
        }
        for (std::size_t k = m; k < right; ++k) {
            w[k + 1 - left] = w[k - left] * q / static_cast<double>(k + 1);
        }
        la::NeumaierSum sum;
        for (const double x : w) sum.add(x);
        const double total = sum.value();
        const double rr = q / (static_cast<double>(right) + 1.0);
        double tail = w[right - left] * rr / (1.0 - rr);
        if (left > 0) {
            const double rl = static_cast<double>(left) / q;
            tail += w[0] * rl / (1.0 - rl);
        }
        const double truncated_mass = 1.0 - tail / total;
        if (truncated_mass >= 1.0 - epsilon) {
            out.left = left;
            out.right = right;
            out.weights.resize(w.size());
            for (std::size_t i = 0; i < w.size(); ++i) out.weights[i] = w[i] / total;
            out.total_before_norm = std::min(truncated_mass, 1.0);
            return out;
        }
        const bool support_covered =
            left == 0 && static_cast<double>(right) >= 2.0 * mode + 100.0;
        if (widths > 1.0e3 || support_covered) {
            throw arcade::ConvergenceError(
                "fox_glynn: cannot capture 1 - epsilon of the Poisson mass for q=" +
                std::to_string(q) + ", epsilon=" + std::to_string(epsilon) +
                " (captured " + std::to_string(truncated_mass) + " with window [" +
                std::to_string(left) + ", " + std::to_string(right) + "])");
        }
    }
}

/// The window fox_glynn computes, or the message it throws.
struct FoxGlynnOutcome {
    std::size_t left = 0;
    std::size_t right = 0;
    std::vector<std::uint64_t> weight_bits;
    std::uint64_t total_bits = 0;
    std::string error;

    bool operator==(const FoxGlynnOutcome&) const = default;
};

template <typename FoxGlynn>
FoxGlynnOutcome outcome_of(FoxGlynn fox_glynn, double q, double epsilon) {
    FoxGlynnOutcome out;
    try {
        const num::PoissonWeights w = fox_glynn(q, epsilon);
        out.left = w.left;
        out.right = w.right;
        for (const double x : w.weights) {
            out.weight_bits.push_back(std::bit_cast<std::uint64_t>(x));
        }
        out.total_bits = std::bit_cast<std::uint64_t>(w.total_before_norm);
    } catch (const arcade::ConvergenceError& e) {
        out.error = e.what();
    }
    return out;
}

}  // namespace

TEST(FoxGlynn, ExtendedChainsMatchThePerAttemptRecurrencesBitwise) {
    const double denorm_min = std::numeric_limits<double>::denorm_min();
    std::vector<double> rates = {0.0, denorm_min, 1e-310};
    for (int i = 0; i <= 140; ++i) rates.push_back(1e-3 * std::pow(10.0, i / 20.0));
    // The exact q = λ·t of every window a paper pass asks for: λ is the
    // uniformisation rate of the chain each cell steps, the full chain for
    // cost cells and, for survivability, the one whose target states absorb.
    arcade::engine::AnalysisSession session;
    const auto paper = arcade::sweep::paper::everything();
    std::vector<double> paper_rates;
    for (const int line : paper.lines) {
        for (const auto& name : paper.strategies) {
            const auto model = arcade::watertree::compile_line(
                session, line, arcade::watertree::strategy(name), arcade::core::Encoding::Lumped);
            const auto& chain = model->chain();
            for (const auto& measure : paper.measures) {
                if (measure.disaster == arcade::sweep::DisasterKind::Mixed && line != 2) continue;
                const double max_exit =
                    measure.kind == arcade::sweep::MeasureKind::Survivability
                        ? chain.max_exit_rate(model->service_at_least(measure.service_level))
                        : chain.max_exit_rate();
                const double lambda = la::uniformisation_rate(max_exit);
                for (const double t : measure.times) paper_rates.push_back(lambda * t);
            }
        }
    }
    // They are the pass's windows: after a serial pass, asking for them
    // all misses nothing, and they number the pass's misses.
    num::fox_glynn_cache_clear();
    (void)arcade::sweep::SweepRunner(session, {1u, {}}).run(paper);
    const auto pass = num::fox_glynn_cache_stats();
    (void)num::fox_glynn_cached(paper_rates, 1e-12);
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, pass.misses);
    std::vector<double> distinct = paper_rates;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    EXPECT_EQ(distinct.size(), pass.misses);
    num::fox_glynn_cache_clear();
    rates.insert(rates.end(), distinct.begin(), distinct.end());
    // 1e-12 is the solvers' default; the tiny epsilons force the widest
    // windows, where the routine must throw (if it throws) the same error.
    for (const double epsilon : {1e-12, 1e-6, 1e-300, denorm_min}) {
        for (const double q : rates) {
            EXPECT_EQ(outcome_of(num::fox_glynn, q, epsilon),
                      outcome_of(fox_glynn_per_attempt, q, epsilon))
                << "q=" << q << " epsilon=" << epsilon;
        }
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

TEST(FoxGlynnCache, ABatchCountsAsOneCallPerRate) {
    // A second batch over the same rates hits every window, and the
    // windows are the ones one call per rate returns.
    num::fox_glynn_cache_clear();
    const std::vector<double> rates = {0.0, 3.0, 40.5, 1e3};
    const auto batch = num::fox_glynn_cached(rates, 1e-12);
    ASSERT_EQ(batch.size(), rates.size());
    auto stats = num::fox_glynn_cache_stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 0u);
    const auto again = num::fox_glynn_cached(rates, 1e-12);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        EXPECT_EQ(again[i].get(), batch[i].get()) << i;
        EXPECT_EQ(num::fox_glynn_cached(rates[i], 1e-12).get(), batch[i].get()) << i;
        EXPECT_EQ(batch[i]->weights, num::fox_glynn(rates[i], 1e-12).weights) << i;
    }
    stats = num::fox_glynn_cache_stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 8u);
    num::fox_glynn_cache_clear();
}

TEST(FoxGlynnCache, ConcurrentBatchesShareOneWindowPerRate) {
    // Four threads ask for the same 200 windows at once.  The first caller
    // to claim a window computes it and the others wait for it, so the
    // threads together compute each window once and get one object per
    // rate.
    num::fox_glynn_cache_clear();
    std::vector<double> rates;
    for (int i = 1; i <= 200; ++i) rates.push_back(2.5 * i);
    std::vector<std::vector<std::shared_ptr<const num::PoissonWeights>>> got(4);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < got.size(); ++t) {
        pool.emplace_back([&, t] { got[t] = num::fox_glynn_cached(rates, 1e-12); });
    }
    for (auto& thread : pool) thread.join();
    const auto stats = num::fox_glynn_cache_stats();
    EXPECT_EQ(stats.misses, rates.size());
    EXPECT_EQ(stats.hits, (got.size() - 1) * rates.size());
    const auto after = num::fox_glynn_cached(rates, 1e-12);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        for (const auto& windows : got) EXPECT_EQ(windows[i].get(), after[i].get()) << i;
        EXPECT_EQ(after[i]->weights, num::fox_glynn(rates[i], 1e-12).weights) << i;
    }
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, stats.misses);
    num::fox_glynn_cache_clear();
}

TEST(FoxGlynnCache, ARateRepeatedInOneBatchIsComputedOnce) {
    // The batch's lookups insert the first repeat's entry, so the later
    // repeats find it: one miss and then hits, as one call per rate would
    // count them.
    num::fox_glynn_cache_clear();
    const std::vector<double> rates = {7.5, 0.0, 7.5, 7.5, 0.0};
    const auto batch = num::fox_glynn_cached(rates, 1e-12);
    const auto stats = num::fox_glynn_cache_stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(batch[2].get(), batch[0].get());
    EXPECT_EQ(batch[3].get(), batch[0].get());
    EXPECT_EQ(batch[4].get(), batch[1].get());
    EXPECT_EQ(batch[0]->weights, num::fox_glynn(7.5, 1e-12).weights);
    num::fox_glynn_cache_clear();
}

TEST(FoxGlynnCache, BatchesInDifferentOrdersComputeEachWindowOnce) {
    // Each of four threads walks the same 120 rates from its own offset,
    // every rate twice, so the threads claim different windows first and
    // wait on each other's: still one computation per distinct window.
    // Each thread reads its windows before it joins, so a window handed
    // over before its claimer published it is a data race under TSan.
    num::fox_glynn_cache_clear();
    constexpr std::size_t kRates = 120;
    std::vector<std::vector<double>> batches(4);
    for (std::size_t t = 0; t < batches.size(); ++t) {
        for (std::size_t k = 0; k < 2 * kRates; ++k) {
            batches[t].push_back(1.5 + static_cast<double>((k + 30 * t) % kRates));
        }
    }
    std::vector<std::vector<std::shared_ptr<const num::PoissonWeights>>> got(batches.size());
    std::vector<double> mass(batches.size(), 0.0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < batches.size(); ++t) {
        pool.emplace_back([&, t] {
            got[t] = num::fox_glynn_cached(batches[t], 1e-10);
            for (const auto& window : got[t]) {
                for (const double w : window->weights) mass[t] += w;
            }
        });
    }
    for (auto& thread : pool) thread.join();
    const auto stats = num::fox_glynn_cache_stats();
    EXPECT_EQ(stats.misses, kRates);
    EXPECT_EQ(stats.hits, batches.size() * 2 * kRates - kRates);
    for (std::size_t t = 0; t < batches.size(); ++t) {
        EXPECT_NEAR(mass[t], 2.0 * kRates, 1e-9) << t;
        for (std::size_t k = 0; k < batches[t].size(); ++k) {
            const auto& first = got[0][(k + 30 * t) % kRates];
            EXPECT_EQ(got[t][k].get(), first.get()) << t << " " << k;
        }
    }
    num::fox_glynn_cache_clear();
}

TEST(FoxGlynnCache, AFailedWindowIsNeverCachedAndTheWindowsBeforeItStay) {
    // One batch: the windows before the failing rate are computed and stay
    // cached, the failing one is not, and the one after it was never
    // claimed, so a later request computes it.
    num::fox_glynn_cache_clear();
    const double bad = 1e20;
    const std::vector<double> batch = {2.5, 7.0, bad, 11.5};
    EXPECT_THROW((void)num::fox_glynn_cached(batch, 1e-12), arcade::InvalidArgument);
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, 3u);
    (void)num::fox_glynn_cached(std::vector<double>{2.5, 7.0}, 1e-12);
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, 3u);
    EXPECT_THROW((void)num::fox_glynn_cached(bad, 1e-12), arcade::InvalidArgument);
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, 4u);
    (void)num::fox_glynn_cached(11.5, 1e-12);
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, 5u);

    // Four threads over overlapping batches that each hold the failing rate
    // among 100 good ones: every caller rethrows, every good window ends up
    // cached (each good rate is in every batch, and a caller computes all
    // it claimed before it waits), and the failed one is computed again.
    num::fox_glynn_cache_clear();
    constexpr std::size_t kRates = 100;
    std::vector<std::vector<double>> batches(4);
    for (std::size_t t = 0; t < batches.size(); ++t) {
        for (std::size_t k = 0; k < kRates; ++k) {
            if (k == 40 + 10 * t) batches[t].push_back(bad);
            batches[t].push_back(0.5 + static_cast<double>((k + 25 * t) % kRates));
        }
    }
    std::vector<int> rethrew(batches.size(), 0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < batches.size(); ++t) {
        pool.emplace_back([&, t] {
            try {
                (void)num::fox_glynn_cached(batches[t], 1e-12);
            } catch (const arcade::InvalidArgument&) {
                rethrew[t] = 1;
            }
        });
    }
    for (auto& thread : pool) thread.join();
    EXPECT_EQ(rethrew, std::vector<int>(batches.size(), 1));
    const auto stats = num::fox_glynn_cache_stats();
    EXPECT_GE(stats.misses, kRates + 1);
    EXPECT_LE(stats.misses, kRates + batches.size());
    std::vector<double> good = batches[0];
    std::erase(good, bad);
    const auto windows = num::fox_glynn_cached(good, 1e-12);
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, stats.misses);
    for (std::size_t i = 0; i < good.size(); ++i) {
        EXPECT_EQ(windows[i]->weights, num::fox_glynn(good[i], 1e-12).weights) << good[i];
    }
    EXPECT_THROW((void)num::fox_glynn_cached(bad, 1e-12), arcade::InvalidArgument);
    EXPECT_EQ(num::fox_glynn_cache_stats().misses, stats.misses + 1);
    num::fox_glynn_cache_clear();
}

TEST(FoxGlynnCache, BatchesPastTheCapacityGetTheUncachedWeightsBitwise) {
    // Four threads ask for 3600 distinct windows in overlapping batches of
    // 1500, twice each, so the cache fills past its 2048 windows while
    // other callers hold and compute entries.  Every window must still be
    // the one fox_glynn computes, bit for bit.
    num::fox_glynn_cache_clear();
    const auto same = [](const num::PoissonWeights& a, const num::PoissonWeights& b) {
        return a.left == b.left && a.right == b.right && a.weights == b.weights &&
               std::bit_cast<std::uint64_t>(a.total_before_norm) ==
                   std::bit_cast<std::uint64_t>(b.total_before_norm);
    };
    std::vector<std::size_t> wrong(4, 0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < wrong.size(); ++t) {
        pool.emplace_back([&, t] {
            std::vector<double> rates;
            for (std::size_t k = 0; k < 1500; ++k) {
                rates.push_back(0.25 + 0.5 * static_cast<double>(k + 700 * t));
            }
            for (int round = 0; round < 2; ++round) {
                const auto windows = num::fox_glynn_cached(rates, 1e-10);
                for (std::size_t i = 0; i < rates.size(); ++i) {
                    if (!same(*windows[i], num::fox_glynn(rates[i], 1e-10))) ++wrong[t];
                }
            }
        });
    }
    for (auto& thread : pool) thread.join();
    EXPECT_EQ(wrong, std::vector<std::size_t>(4, 0));
    // The cache stayed bounded: the 3600 windows no longer all fit.
    const auto before = num::fox_glynn_cache_stats();
    std::vector<double> all;
    for (std::size_t k = 0; k < 3600; ++k) all.push_back(0.25 + 0.5 * static_cast<double>(k));
    (void)num::fox_glynn_cached(all, 1e-10);
    EXPECT_GT(num::fox_glynn_cache_stats().misses, before.misses);
    num::fox_glynn_cache_clear();
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

double criterion(double newv, double oldv) {
    return std::abs(newv - oldv) / std::max(std::abs(newv), 1e-300);
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
            worst = std::max(worst, criterion(newv, run.x[j]));
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
            worst = std::max(worst, criterion(newv, run.x[i]));
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
        num::SolverOptions options;
        options.max_iterations = 3000;
        const std::string what = "n=" + std::to_string(n);
        expect_same_run(library_steady(rates, options), reference_steady(rates, options), what);
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
        const num::SolverOptions options;
        const std::string what = "n=" + std::to_string(n);
        const SolveRun want = reference_fixpoint(a, b, options);
        ASSERT_FALSE(want.threw) << what;
        expect_same_run(library_fixpoint(a, b, options), want, what);
    }
}
