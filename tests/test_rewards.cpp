// Unit tests: Markov reward measures against closed forms.
#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/ctmc.hpp"
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
