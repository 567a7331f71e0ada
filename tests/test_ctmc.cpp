// Unit tests: CTMC transient/steady-state/bounded-until against closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>

#include "ctmc/bounded_until.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "linalg/kernels.hpp"
#include "support/errors.hpp"

namespace ctmc = arcade::ctmc;
namespace la = arcade::linalg;

namespace {

ctmc::Ctmc two_state(double l, double m) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, l);
    if (m > 0.0) b.add(1, 0, m);
    return ctmc::Ctmc(b.build(), {1.0, 0.0});
}

/// Erlang chain: k sequential exp(rate) stages 0 -> 1 -> ... -> k.
ctmc::Ctmc erlang(int k, double rate) {
    la::CsrBuilder b(k + 1, k + 1);
    for (int i = 0; i < k; ++i) b.add(i, i + 1, rate);
    std::vector<double> init(k + 1, 0.0);
    init[0] = 1.0;
    return ctmc::Ctmc(b.build(), std::move(init));
}

}  // namespace

TEST(Transient, PureDeathMatchesExponential) {
    const auto chain = two_state(0.5, 0.0);
    for (double t : {0.1, 1.0, 5.0}) {
        const auto dist =
            ctmc::transient_distribution(chain, chain.initial_distribution(), t);
        EXPECT_NEAR(dist[0], std::exp(-0.5 * t), 1e-10) << t;
        EXPECT_NEAR(dist[1], 1.0 - std::exp(-0.5 * t), 1e-10) << t;
    }
}

TEST(Transient, TwoStateClosedForm) {
    // p_up(t) = m/(l+m) + l/(l+m) e^{-(l+m)t}
    const double l = 0.2;
    const double m = 1.5;
    const auto chain = two_state(l, m);
    for (double t : {0.3, 2.0, 10.0}) {
        const auto dist =
            ctmc::transient_distribution(chain, chain.initial_distribution(), t);
        const double expected = m / (l + m) + l / (l + m) * std::exp(-(l + m) * t);
        EXPECT_NEAR(dist[0], expected, 1e-10) << t;
    }
}

TEST(Transient, SeriesSteppingAgreesWithDirectSolves) {
    const auto chain = two_state(0.7, 0.9);
    const std::vector<double> times{0.0, 0.5, 1.0, 2.5, 7.0};
    const auto series =
        ctmc::transient_series(chain, chain.initial_distribution(), times);
    for (std::size_t i = 0; i < times.size(); ++i) {
        const auto direct =
            ctmc::transient_distribution(chain, chain.initial_distribution(), times[i]);
        EXPECT_NEAR(series[i][0], direct[0], 1e-9) << "t=" << times[i];
        EXPECT_NEAR(series[i][1], direct[1], 1e-9);
    }
}

TEST(Transient, ErlangStageDistributionIsPoissonTruncated) {
    // P(X_t in stage j) for the Erlang chain = Poisson pmf / tail.
    const int k = 4;
    const double rate = 2.0;
    const double t = 1.3;
    const auto chain = erlang(k, rate);
    const auto dist = ctmc::transient_distribution(chain, chain.initial_distribution(), t);
    double tail = 1.0;
    for (int j = 0; j < k; ++j) {
        const double pmf = std::exp(-rate * t) * std::pow(rate * t, j) / std::tgamma(j + 1.0);
        EXPECT_NEAR(dist[j], pmf, 1e-10) << j;
        tail -= pmf;
    }
    EXPECT_NEAR(dist[k], tail, 1e-10);
}

TEST(SteadyState, IrreducibleTwoState) {
    const double l = 1.0 / 100.0;
    const double m = 0.5;
    const auto chain = two_state(l, m);
    const auto pi = ctmc::steady_state(chain);
    EXPECT_NEAR(pi[0], m / (l + m), 1e-10);
}

TEST(SteadyState, AbsorbingChainConcentratesInBsccs) {
    // 0 -> 1 (rate 1) and 0 -> 2 (rate 3); 1, 2 absorbing.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(0, 2, 3.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    const auto pi = ctmc::steady_state(chain);
    EXPECT_NEAR(pi[0], 0.0, 1e-12);
    EXPECT_NEAR(pi[1], 0.25, 1e-9);
    EXPECT_NEAR(pi[2], 0.75, 1e-9);
}

TEST(SteadyState, MixtureOfInitialStates) {
    // Two disconnected 2-state chains; initial mass 0.3 / 0.7.
    la::CsrBuilder b(4, 4);
    b.add(0, 1, 1.0);
    b.add(1, 0, 1.0);   // chain A: pi = (1/2, 1/2)
    b.add(2, 3, 1.0);
    b.add(3, 2, 3.0);   // chain B: pi = (3/4, 1/4)
    const ctmc::Ctmc chain(b.build(), {0.3, 0.0, 0.7, 0.0});
    const auto pi = ctmc::steady_state(chain);
    EXPECT_NEAR(pi[0], 0.15, 1e-9);
    EXPECT_NEAR(pi[1], 0.15, 1e-9);
    EXPECT_NEAR(pi[2], 0.525, 1e-9);
    EXPECT_NEAR(pi[3], 0.175, 1e-9);
}

TEST(ReachabilityProbability, BranchingClosedForm) {
    // 0 -> 1 rate 1, 0 -> 2 rate 3; target {2}: p = 3/4 from 0.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(0, 2, 3.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    std::vector<bool> allowed(3, true);
    std::vector<bool> target{false, false, true};
    const auto p = ctmc::reachability_probability(chain, allowed, target);
    EXPECT_NEAR(p[0], 0.75, 1e-10);
    EXPECT_NEAR(p[1], 0.0, 1e-12);
    EXPECT_NEAR(p[2], 1.0, 1e-12);
}

TEST(BoundedUntil, ErlangFirstPassageClosedForm) {
    // P(reach final stage of Erlang(2, r) by t) = 1 - e^{-rt}(1 + rt).
    const double r = 1.7;
    const auto chain = erlang(2, r);
    std::vector<bool> phi(3, true);
    std::vector<bool> psi{false, false, true};
    for (double t : {0.5, 1.0, 3.0}) {
        const double expected = 1.0 - std::exp(-r * t) * (1.0 + r * t);
        EXPECT_NEAR(ctmc::bounded_until_probability(chain, chain.initial_distribution(),
                                                    phi, psi, t),
                    expected, 1e-10)
            << t;
    }
}

TEST(BoundedUntil, PhiRestrictionBlocksDetours) {
    // 0 -> 1 -> 2, but phi excludes 1: P(0 |= phi U<=t {2}) = 0.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(1, 2, 1.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    std::vector<bool> phi{true, false, true};
    std::vector<bool> psi{false, false, true};
    EXPECT_NEAR(
        ctmc::bounded_until_probability(chain, chain.initial_distribution(), phi, psi, 50.0),
        0.0, 1e-12);
}

TEST(BoundedUntil, AllStatesBackwardAgreesWithForward) {
    const auto chain = erlang(3, 0.9);
    std::vector<bool> phi(4, true);
    std::vector<bool> psi{false, false, false, true};
    const double t = 2.2;
    const auto per_state = ctmc::bounded_until_all_states(chain, phi, psi, t);
    for (std::size_t s = 0; s < 4; ++s) {
        const auto init = ctmc::Ctmc::point_distribution(4, s);
        EXPECT_NEAR(per_state[s],
                    ctmc::bounded_until_probability(chain, init, phi, psi, t), 1e-9)
            << s;
    }
}

TEST(BoundedUntil, SeriesIsMonotoneAndMatchesPointSolves) {
    const auto chain = erlang(2, 1.0);
    std::vector<bool> phi(3, true);
    std::vector<bool> psi{false, false, true};
    const std::vector<double> times{0.0, 0.5, 1.0, 2.0, 4.0};
    const auto series = ctmc::bounded_until_series(chain, chain.initial_distribution(), phi,
                                                   psi, times);
    for (std::size_t i = 1; i < series.size(); ++i) {
        EXPECT_GE(series[i] + 1e-12, series[i - 1]);  // monotone in t
    }
    EXPECT_NEAR(series[0], 0.0, 1e-12);
}

TEST(Transient, AdvanceToDuplicateTimeIsANoOp) {
    const auto chain = two_state(0.7, 0.9);
    ctmc::TransientEvolver evolver(chain, chain.initial_distribution());
    evolver.advance_to(1.0);
    const auto at_one = evolver.distribution();
    evolver.advance_to(1.0);             // exact duplicate
    evolver.advance_to(1.0 - 0.5e-12);   // duplicate within tolerance
    EXPECT_DOUBLE_EQ(evolver.time(), 1.0);  // time never moves backwards
    EXPECT_EQ(evolver.distribution(), at_one);
}

TEST(Transient, AdvanceToDecreasingTimeThrows) {
    const auto chain = two_state(0.7, 0.9);
    ctmc::TransientEvolver evolver(chain, chain.initial_distribution());
    evolver.advance_to(2.0);
    EXPECT_THROW(evolver.advance_to(1.0), arcade::InvalidArgument);
    EXPECT_DOUBLE_EQ(evolver.time(), 2.0);  // failed call left the state alone
}

TEST(BoundedUntil, AllStatesOnZeroRateChainIsExactIndicator) {
    // With phi empty every state of the transformed chain is absorbing: the
    // result must be the exact psi indicator, not a near-zero-rate
    // uniformisation approximation of it.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(1, 2, 2.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    std::vector<bool> phi{false, false, false};
    std::vector<bool> psi{true, false, true};
    const auto v = ctmc::bounded_until_all_states(chain, phi, psi, 10.0);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
    EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(BoundedUntil, ForwardBackwardAgreeOnRandomChains) {
    // Property: for any chain, bounded_until_probability from a point
    // distribution at s equals bounded_until_all_states(...)[s].
    std::mt19937 rng(20260729);
    std::uniform_real_distribution<double> rate(0.1, 3.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 3 + static_cast<std::size_t>(trial) % 4;
        la::CsrBuilder b(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (i != j && unit(rng) < 0.5) b.add(i, j, rate(rng));
            }
        }
        const ctmc::Ctmc chain(b.build(), ctmc::Ctmc::point_distribution(n, 0));
        std::vector<bool> phi(n), psi(n);
        for (std::size_t s = 0; s < n; ++s) {
            phi[s] = unit(rng) < 0.7;
            psi[s] = unit(rng) < 0.3;
        }
        const double t = 0.25 + 2.0 * unit(rng);
        const auto per_state = ctmc::bounded_until_all_states(chain, phi, psi, t);
        for (std::size_t s = 0; s < n; ++s) {
            const auto init = ctmc::Ctmc::point_distribution(n, s);
            EXPECT_NEAR(per_state[s],
                        ctmc::bounded_until_probability(chain, init, phi, psi, t), 1e-9)
                << "trial=" << trial << " s=" << s;
        }
    }
}

TEST(Ctmc, MakeAbsorbingDropsTransitions) {
    const auto chain = two_state(1.0, 2.0);
    std::vector<bool> absorbing{false, true};
    const auto transformed = chain.make_absorbing(absorbing);
    EXPECT_EQ(transformed.transition_count(), 1u);
    EXPECT_DOUBLE_EQ(transformed.exit_rate(1), 0.0);
}

TEST(Ctmc, ValidationRejectsBadInputs) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, 1.0);
    EXPECT_NO_THROW(ctmc::Ctmc(b.build(), {1.0, 0.0}));
    la::CsrBuilder b2(2, 2);
    b2.add(0, 1, 1.0);
    EXPECT_THROW(ctmc::Ctmc(b2.build(), {0.7, 0.0}), std::exception);  // mass != 1
}

TEST(Ctmc, RejectsNanRate) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, std::nan(""));
    EXPECT_THROW(ctmc::Ctmc(b.build(), {1.0, 0.0}), arcade::InvalidArgument);
}

TEST(Ctmc, RejectsInfiniteRate) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, std::numeric_limits<double>::infinity());
    EXPECT_THROW(ctmc::Ctmc(b.build(), {1.0, 0.0}), arcade::InvalidArgument);
}

TEST(Ctmc, RejectsNanInitialProbability) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, 1.0);
    EXPECT_THROW(ctmc::Ctmc(b.build(), {std::nan(""), 1.0}), arcade::InvalidArgument);
}

TEST(Ctmc, SetInitialDistributionRejectsNegativeMass) {
    auto chain = two_state(1.0, 2.0);
    EXPECT_THROW(chain.set_initial_distribution({1.5, -0.5}), arcade::InvalidArgument);
    EXPECT_THROW(chain.set_initial_distribution({std::nan(""), 1.0}),
                 arcade::InvalidArgument);
    chain.set_initial_distribution({0.25, 0.75});
    EXPECT_EQ(chain.initial_distribution(), (std::vector<double>{0.25, 0.75}));
}

TEST(Ctmc, ExitRatesAreCachedAtConstructionAndIgnoreDiagonal) {
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.5);
    b.add(0, 2, 2.5);
    b.add(0, 0, 7.0);  // diagonal entries never count towards exit rates
    b.add(1, 2, 0.25);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(chain.exit_rate(0), 4.0);
    EXPECT_DOUBLE_EQ(chain.exit_rate(1), 0.25);
    EXPECT_DOUBLE_EQ(chain.exit_rate(2), 0.0);
    EXPECT_DOUBLE_EQ(chain.max_exit_rate(), 4.0);
    // Derived chains recompute their own cache.
    const auto absorbed = chain.make_absorbing({true, false, false});
    EXPECT_DOUBLE_EQ(absorbed.exit_rate(0), 0.0);
    EXPECT_DOUBLE_EQ(absorbed.max_exit_rate(), 0.25);
}

// ---------------------------------------------------------------------------
// The series pass: one power sequence s_k = f(initial · P^k) per curve, every
// grid point weighted by its own Fox–Glynn window.
// ---------------------------------------------------------------------------

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// A random irreducible-ish chain.
ctmc::Ctmc random_chain(std::mt19937& rng, std::size_t n) {
    std::uniform_real_distribution<double> rate(0.1, 3.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    la::CsrBuilder b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i != j && unit(rng) < 0.5) b.add(i, j, rate(rng));
        }
    }
    return ctmc::Ctmc(b.build(), ctmc::Ctmc::point_distribution(n, 0));
}

/// {0, t_max/(points-1), ..., t_max}.
std::vector<double> uniform_grid(double t_max, std::size_t points) {
    std::vector<double> times(points);
    for (std::size_t i = 0; i < points; ++i) {
        times[i] = t_max * static_cast<double>(i) / static_cast<double>(points - 1);
    }
    return times;
}

/// Per-segment truncation error of the segment-wise references.  Each of
/// their segments drops up to epsilon of Poisson mass and the errors add up
/// along the grid, so they run at 1e-14 per segment to stay well inside the
/// 1e-12 the single pass is held to.
constexpr double kSegmentEpsilon = 1e-14;

/// Segment-wise reference: a TransientEvolver over the until-transformed
/// chain stepped from grid point to grid point, mass in psi read at each.
std::vector<double> segmentwise_until(const ctmc::Ctmc& chain,
                                      std::span<const double> initial,
                                      const std::vector<bool>& phi,
                                      const std::vector<bool>& psi,
                                      std::span<const double> times) {
    ctmc::TransientOptions options;
    options.epsilon = kSegmentEpsilon;
    ctmc::TransientEvolver evolver(ctmc::until_transform(chain, phi, psi), initial,
                                   options);
    std::vector<double> out;
    for (const double t : times) {
        evolver.advance_to(t);
        out.push_back(ctmc::mass_in(evolver.distribution(), psi));
    }
    return out;
}

}  // namespace

TEST(SeriesPass, PoissonProcessSurvivabilityClosedForm) {
    // Pure birth at rate r, absorbed at m births: P[true U<=t N>=m] is the
    // Poisson tail P(N_t >= m) = 1 - sum_{j<m} e^{-rt} (rt)^j / j!.
    const int m = 6;
    const double r = 2.5;
    la::CsrBuilder b(m + 1, m + 1);
    for (int i = 0; i < m; ++i) b.add(i, i + 1, r);
    const ctmc::Ctmc chain(b.build(), ctmc::Ctmc::point_distribution(m + 1, 0));
    const std::vector<bool> phi(m + 1, true);
    std::vector<bool> psi(m + 1, false);
    psi[m] = true;
    const auto times = uniform_grid(5.0, 101);
    const auto series =
        ctmc::bounded_until_series(chain, chain.initial_distribution(), phi, psi, times);
    ASSERT_EQ(series.size(), times.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
        const double rt = r * times[i];
        double below = 0.0;
        double pmf = std::exp(-rt);
        for (int j = 0; j < m; ++j) {
            below += pmf;
            pmf *= rt / (j + 1.0);
        }
        EXPECT_NEAR(series[i], 1.0 - below, 1e-12) << "t=" << times[i];
    }
}

TEST(SeriesPass, BoundedUntilAgreesWithSegmentwiseEvolverOnRandomChains) {
    std::mt19937 rng(20261017);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 4 + static_cast<std::size_t>(trial) % 5;
        const auto chain = random_chain(rng, n);
        std::vector<bool> phi(n), psi(n);
        for (std::size_t s = 0; s < n; ++s) {
            phi[s] = unit(rng) < 0.8;
            psi[s] = unit(rng) < 0.3;
        }
        const auto times = uniform_grid(1.0 + 4.0 * unit(rng), 41);
        const auto series = ctmc::bounded_until_series(chain, chain.initial_distribution(),
                                                       phi, psi, times);
        const auto reference =
            segmentwise_until(chain, chain.initial_distribution(), phi, psi, times);
        ASSERT_EQ(series.size(), reference.size());
        for (std::size_t i = 0; i < times.size(); ++i) {
            EXPECT_NEAR(series[i], reference[i], 1e-12)
                << "trial=" << trial << " t=" << times[i];
        }
    }
}

TEST(SeriesPass, BoundedUntilGridSemantics) {
    const auto chain = erlang(3, 1.5);
    const std::vector<bool> phi(4, true);
    const std::vector<bool> psi{false, false, true, true};
    std::vector<double> initial(4, 0.0);
    initial[0] = 0.25;
    initial[2] = 0.75;  // f(initial) = 0.75: the t = 0 value is exact
    const auto series = [&](const std::vector<double>& times) {
        return ctmc::bounded_until_series(chain, initial, phi, psi, times);
    };
    const auto at = series({0.0, 1.0, 1.0, 2.5});
    ASSERT_EQ(at.size(), 4u);
    EXPECT_EQ(at[0], 0.75);
    EXPECT_EQ(at[1], at[2]);  // an exact duplicate repeats the value
    EXPECT_GT(at[3], at[1]);
    // A point within the duplicate tolerance clamps to its predecessor.
    const auto clamped = series({1.0, 1.0 - 1e-13});
    EXPECT_TRUE(same_bits(clamped[0], clamped[1]));
    EXPECT_TRUE(same_bits(clamped[0], at[1]));
    // A genuinely decreasing grid is a caller error.
    EXPECT_THROW((void)series({1.0, 0.5}), arcade::InvalidArgument);
    EXPECT_THROW((void)series({-0.5}), arcade::InvalidArgument);
    EXPECT_TRUE(series({}).empty());
}

TEST(SeriesPass, SingleTimeBoundedUntilIsBitwiseTheSeriesPoint) {
    std::mt19937 rng(20261018);
    const auto chain = random_chain(rng, 7);
    const std::vector<bool> phi(7, true);
    const std::vector<bool> psi{false, true, false, false, true, false, false};
    const std::vector<double> times{0.0, 0.05, 0.3, 0.3001, 1.7, 4.0, 12.5};
    const auto series =
        ctmc::bounded_until_series(chain, chain.initial_distribution(), phi, psi, times);
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_TRUE(same_bits(series[i],
                              ctmc::bounded_until_probability(
                                  chain, chain.initial_distribution(), phi, psi, times[i])))
            << "t=" << times[i];
    }
}


TEST(SeriesPass, MemberListFunctionalIsBitwiseMassIn) {
    std::mt19937 rng(20261019);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 6; ++trial) {
        const std::size_t n = 5 + static_cast<std::size_t>(trial);
        const auto chain = random_chain(rng, n);
        std::vector<bool> phi(n), psi(n), absorbing(n);
        for (std::size_t s = 0; s < n; ++s) {
            phi[s] = unit(rng) < 0.8;
            psi[s] = unit(rng) < 0.4;
            absorbing[s] = psi[s] || !phi[s];
        }
        const auto times = uniform_grid(3.0, 31);
        const auto series = ctmc::bounded_until_series(chain, chain.initial_distribution(),
                                                       phi, psi, times);
        const auto reference = ctmc::functional_series(
            ctmc::uniformise(chain, &absorbing), chain.initial_distribution(), times,
            ctmc::SeriesForm::Instantaneous,
            [&psi](std::span<const double> dist) { return ctmc::mass_in(dist, psi); });
        ASSERT_EQ(series.size(), reference.size());
        for (std::size_t i = 0; i < times.size(); ++i) {
            EXPECT_TRUE(same_bits(series[i], reference[i]))
                << "trial=" << trial << " t=" << times[i];
        }
    }
}

TEST(SeriesPass, SharedPassIsBitwiseSeparatePasses) {
    std::mt19937 rng(20261020);
    const auto chain = random_chain(rng, 9);
    std::uniform_real_distribution<double> unit(0.0, 5.0);
    std::vector<double> rho(9);
    for (double& r : rho) r = unit(rng);
    const ctmc::DistributionFunctional f = [&rho](std::span<const double> dist) {
        double total = 0.0;
        for (std::size_t s = 0; s < dist.size(); ++s) total += dist[s] * rho[s];
        return total;
    };
    const auto p = ctmc::uniformise(chain);
    const auto& initial = chain.initial_distribution();
    // Different last times (the accumulated grid runs further), both
    // starting at t = 0, each with a duplicate point.
    const std::vector<double> inst_times{0.0, 0.4, 0.4, 1.1, 2.5};
    const std::vector<double> acc_times{0.0, 0.7, 3.0, 3.0, 6.0};
    const std::vector<ctmc::SeriesRequest> requests{
        {inst_times, ctmc::SeriesForm::Instantaneous},
        {acc_times, ctmc::SeriesForm::Accumulated}};
    const auto shared = ctmc::functional_series(p, initial, requests, f);
    ASSERT_EQ(shared.size(), 2u);
    const auto inst =
        ctmc::functional_series(p, initial, inst_times, ctmc::SeriesForm::Instantaneous, f);
    const auto acc =
        ctmc::functional_series(p, initial, acc_times, ctmc::SeriesForm::Accumulated, f);
    ASSERT_EQ(shared[0].size(), inst.size());
    ASSERT_EQ(shared[1].size(), acc.size());
    for (std::size_t i = 0; i < inst.size(); ++i) {
        EXPECT_TRUE(same_bits(shared[0][i], inst[i])) << "t=" << inst_times[i];
    }
    for (std::size_t i = 0; i < acc.size(); ++i) {
        EXPECT_TRUE(same_bits(shared[1][i], acc[i])) << "t=" << acc_times[i];
    }
    EXPECT_EQ(shared[1][0], 0.0);  // nothing accumulates by t = 0
    EXPECT_TRUE(same_bits(shared[1][2], shared[1][3]));

    // A decreasing grid in either request is refused.
    const std::vector<double> decreasing{0.0, 2.0, 1.0};
    const std::vector<ctmc::SeriesRequest> bad_first{
        {decreasing, ctmc::SeriesForm::Instantaneous},
        {acc_times, ctmc::SeriesForm::Accumulated}};
    const std::vector<ctmc::SeriesRequest> bad_second{
        {inst_times, ctmc::SeriesForm::Instantaneous},
        {decreasing, ctmc::SeriesForm::Accumulated}};
    EXPECT_THROW((void)ctmc::functional_series(p, initial, bad_first, f),
                 arcade::InvalidArgument);
    EXPECT_THROW((void)ctmc::functional_series(p, initial, bad_second, f),
                 arcade::InvalidArgument);
}
