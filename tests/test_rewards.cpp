// Unit tests: Markov reward measures against closed forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <span>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "numeric/fox_glynn.hpp"
#include "rewards/rewards.hpp"
#include "support/errors.hpp"

namespace ctmc = arcade::ctmc;
namespace rw = arcade::rewards;
namespace la = arcade::linalg;

namespace {

ctmc::Ctmc two_state(double l, double m) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, l);
    b.add(1, 0, m);
    return ctmc::Ctmc(b.build(), {1.0, 0.0});
}

}  // namespace

TEST(Rewards, InstantaneousTwoStateClosedForm) {
    // reward 1 in the down state: E[rho(X_t)] = p_down(t).
    const double l = 0.4;
    const double m = 1.1;
    const auto chain = two_state(l, m);
    const rw::RewardStructure reward("down_time", {0.0, 1.0});
    for (double t : {0.2, 1.0, 6.0}) {
        const double p_down = l / (l + m) * (1.0 - std::exp(-(l + m) * t));
        EXPECT_NEAR(
            rw::instantaneous_reward(chain, chain.initial_distribution(), reward, t),
            p_down, 1e-10)
            << t;
    }
}

TEST(Rewards, AccumulatedIsIntegralOfInstantaneous) {
    // E[∫ rho] for the two-state chain has the closed form
    //   (l/(l+m)) * ( t - (1 - e^{-(l+m)t})/(l+m) ).
    const double l = 0.4;
    const double m = 1.1;
    const auto chain = two_state(l, m);
    const rw::RewardStructure reward("down_time", {0.0, 1.0});
    for (double t : {0.5, 2.0, 10.0}) {
        const double s = l + m;
        const double expected = l / s * (t - (1.0 - std::exp(-s * t)) / s);
        EXPECT_NEAR(
            rw::accumulated_reward(chain, chain.initial_distribution(), reward, t),
            expected, 1e-9)
            << t;
    }
}

TEST(Rewards, AccumulatedOfConstantRewardIsTime) {
    // rho = c everywhere => E[∫_0^t rho] = c*t regardless of dynamics.
    const auto chain = two_state(0.9, 0.3);
    const rw::RewardStructure reward("const", {2.5, 2.5});
    for (double t : {0.1, 1.0, 13.0}) {
        EXPECT_NEAR(
            rw::accumulated_reward(chain, chain.initial_distribution(), reward, t),
            2.5 * t, 1e-9)
            << t;
    }
}

TEST(Rewards, SeriesAgreesWithPointSolvesAndIsMonotone) {
    const auto chain = two_state(0.6, 0.8);
    const rw::RewardStructure reward("r", {1.0, 3.0});
    const std::vector<double> times{0.0, 0.4, 1.0, 2.5, 8.0};
    const auto acc = rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                   reward, times);
    const auto inst = rw::instantaneous_reward_series(chain, chain.initial_distribution(),
                                                      reward, times);
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_NEAR(acc[i],
                    rw::accumulated_reward(chain, chain.initial_distribution(), reward,
                                           times[i]),
                    1e-8);
        EXPECT_NEAR(inst[i],
                    rw::instantaneous_reward(chain, chain.initial_distribution(), reward,
                                             times[i]),
                    1e-9);
        if (i > 0) {
            EXPECT_GT(acc[i], acc[i - 1]);  // positive rewards accumulate
        }
    }
    EXPECT_NEAR(acc[0], 0.0, 1e-12);
}

TEST(Rewards, SeriesClampsDuplicateGridPoints) {
    // An exactly-duplicated grid point is a zero-length interval: the series
    // value must repeat and equal the scalar solve at that time bit-for-bit
    // (the raw t - prev of a duplicate can be -0.0-ish and must be clamped,
    // never fed into the interval accumulator).
    const auto chain = two_state(0.7, 1.3);
    const rw::RewardStructure reward("r", {1.0, 4.0});
    const std::vector<double> times{0.0, 1.0, 1.0, 2.5};
    const auto acc = rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                   reward, times);
    ASSERT_EQ(acc.size(), times.size());
    EXPECT_EQ(acc[1], acc[2]);
    EXPECT_EQ(acc[1],
              rw::accumulated_reward(chain, chain.initial_distribution(), reward, 1.0));
    // A point within the duplicate tolerance clamps too...
    const std::vector<double> nudged{1.0, 1.0 - 1e-13};
    const auto clamped = rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                       reward, nudged);
    EXPECT_EQ(clamped[0], clamped[1]);
    // ...but a genuinely decreasing grid is a caller error.
    const std::vector<double> decreasing{1.0, 0.5};
    EXPECT_THROW((void)rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                     reward, decreasing),
                 arcade::InvalidArgument);
}

TEST(Rewards, SteadyStateReward) {
    const double l = 0.25;
    const double m = 1.0;
    const auto chain = two_state(l, m);
    const rw::RewardStructure reward("r", {1.0, 5.0});
    const double pi_down = l / (l + m);
    EXPECT_NEAR(rw::steady_state_reward(chain, reward),
                (1.0 - pi_down) * 1.0 + pi_down * 5.0, 1e-9);
}

TEST(Rewards, InstantaneousConvergesToSteadyState) {
    const auto chain = two_state(0.5, 0.7);
    const rw::RewardStructure reward("r", {2.0, 9.0});
    const double at_large_t =
        rw::instantaneous_reward(chain, chain.initial_distribution(), reward, 200.0);
    EXPECT_NEAR(at_large_t, rw::steady_state_reward(chain, reward), 1e-8);
}

// ---------------------------------------------------------------------------
// The series pass behind both transient reward measures, against
// segment-wise references that step the distribution from grid point to
// grid point (the evaluation scheme the pass replaced).
// ---------------------------------------------------------------------------

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Per-segment truncation error of the references: their errors add up
/// along the grid, so they run at 1e-14 per segment to stay well inside the
/// 1e-12 the single pass is held to.
constexpr double kSegmentEpsilon = 1e-14;

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

/// Instantaneous reference: a TransientEvolver stepped point to point.
std::vector<double> segmentwise_instantaneous(const ctmc::Ctmc& chain,
                                              const std::vector<double>& rho,
                                              std::span<const double> times) {
    ctmc::TransientOptions options;
    options.epsilon = kSegmentEpsilon;
    ctmc::TransientEvolver evolver(chain, chain.initial_distribution(), options);
    std::vector<double> out;
    for (const double t : times) {
        evolver.advance_to(t);
        out.push_back(la::dot(evolver.distribution(), rho));
    }
    return out;
}

/// Accumulated reference: per grid interval of length dt, starting from the
/// distribution at its left end,
///   (1/L) sum_k (1 - F_k(L dt)) * (dist P^k) · rho,
/// with dist advanced to the right end by the same powers.
std::vector<double> segmentwise_accumulated(const ctmc::Ctmc& chain,
                                            const std::vector<double>& rho,
                                            std::span<const double> times) {
    const la::UniformisedMatrix p = ctmc::uniformise(chain);
    std::vector<double> dist = chain.initial_distribution();
    std::vector<double> cur, next(dist.size()), end(dist.size());
    std::vector<double> out;
    double acc = 0.0;
    double prev = 0.0;
    for (const double t : times) {
        const double dt = t - prev;
        if (dt > 0.0) {
            const auto w = arcade::numeric::fox_glynn(p.lambda * dt, kSegmentEpsilon);
            cur = dist;
            std::fill(end.begin(), end.end(), 0.0);
            double cdf = 0.0;
            double total = 0.0;
            for (std::size_t k = 0;; ++k) {
                cdf += w.weight(k);
                total += std::max(0.0, 1.0 - cdf) * la::dot(cur, rho);
                for (std::size_t i = 0; i < cur.size(); ++i) end[i] += w.weight(k) * cur[i];
                if (k == w.right) break;
                la::uniformised_multiply_left(p, cur, next);
                std::swap(cur, next);
            }
            dist = end;
            acc += total / p.lambda;
            prev = t;
        }
        out.push_back(acc);
    }
    return out;
}

}  // namespace

TEST(RewardSeriesPass, AgreesWithSegmentwiseReferencesOnRandomChains) {
    std::mt19937 rng(20261019);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 3 + static_cast<std::size_t>(trial) % 6;
        const auto chain = random_chain(rng, n);
        std::vector<double> rho(n);
        for (double& r : rho) r = 5.0 * unit(rng);
        const rw::RewardStructure reward("r", rho);
        std::vector<double> times(41);
        const double t_max = 1.0 + 4.0 * unit(rng);
        for (std::size_t i = 0; i < times.size(); ++i) {
            times[i] = t_max * static_cast<double>(i) / 40.0;
        }
        const auto inst = rw::instantaneous_reward_series(chain, chain.initial_distribution(),
                                                          reward, times);
        // The accumulated form reads P(N > k) for every k <= right through
        // normalised weights, each short by up to the truncated mass, so at
        // epsilon its own error reaches epsilon·(right + 1)·max rho/λ — a
        // few 1e-12 on these chains.  Run it at 1e-13 so that the comparison
        // checks the pass, not the truncation.
        ctmc::TransientOptions fine;
        fine.epsilon = 1e-13;
        const auto acc = rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                       reward, times, fine);
        const auto inst_ref = segmentwise_instantaneous(chain, rho, times);
        const auto acc_ref = segmentwise_accumulated(chain, rho, times);
        for (std::size_t i = 0; i < times.size(); ++i) {
            EXPECT_NEAR(inst[i], inst_ref[i], 1e-12) << "trial=" << trial << " t=" << times[i];
            EXPECT_NEAR(acc[i], acc_ref[i], 1e-12) << "trial=" << trial << " t=" << times[i];
        }
    }
}

TEST(RewardSeriesPass, InstantaneousGridSemantics) {
    const auto chain = two_state(0.7, 1.3);
    const rw::RewardStructure reward("r", {1.5, 4.0});
    const std::vector<double> initial{0.25, 0.75};
    const auto series = [&](const std::vector<double>& times) {
        return rw::instantaneous_reward_series(chain, initial, reward, times);
    };
    const auto at = series({0.0, 1.0, 1.0, 2.5});
    ASSERT_EQ(at.size(), 4u);
    EXPECT_EQ(at[0], 0.25 * 1.5 + 0.75 * 4.0);  // t = 0 is f(initial) exactly
    EXPECT_EQ(at[1], at[2]);
    const auto clamped = series({1.0, 1.0 - 1e-13});
    EXPECT_TRUE(same_bits(clamped[0], clamped[1]));
    EXPECT_TRUE(same_bits(clamped[0], at[1]));
    EXPECT_THROW((void)series({1.0, 0.5}), arcade::InvalidArgument);
    EXPECT_THROW((void)series({-0.5}), arcade::InvalidArgument);
    // The accumulated series is zero at t = 0.
    const std::vector<double> zero{0.0};
    EXPECT_EQ(rw::accumulated_reward_series(chain, initial, reward, zero).front(), 0.0);
}

TEST(RewardSeriesPass, SingleTimeValuesAreBitwiseTheSeriesPoints) {
    std::mt19937 rng(20261020);
    const auto chain = random_chain(rng, 6);
    const rw::RewardStructure reward("r", {0.5, 2.0, 0.0, 7.25, 1.0, 3.5});
    const std::vector<double> times{0.0, 0.05, 0.3, 0.3001, 1.7, 4.0, 12.5};
    const auto& init = chain.initial_distribution();
    const auto inst = rw::instantaneous_reward_series(chain, init, reward, times);
    const auto acc = rw::accumulated_reward_series(chain, init, reward, times);
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_TRUE(
            same_bits(inst[i], rw::instantaneous_reward(chain, init, reward, times[i])))
            << "t=" << times[i];
        EXPECT_TRUE(same_bits(acc[i], rw::accumulated_reward(chain, init, reward, times[i])))
            << "t=" << times[i];
    }
}
