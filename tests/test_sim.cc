#include <gtest/gtest.h>

#include "sim/environment.h"
#include "sim/quadcopter.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace avis::sim {
namespace {

MotorCommands uniform(double throttle) {
  MotorCommands m;
  for (double& v : m.value) v = throttle;
  return m;
}

class QuadcopterTest : public ::testing::Test {
 protected:
  Environment env_;
  QuadcopterDynamics dynamics_;
  VehicleState state_;
  util::Rng rng_{1};

  CrashCause step_n(const MotorCommands& motors, int n) {
    CrashCause last = CrashCause::kNone;
    for (int i = 0; i < n; ++i) {
      const CrashCause c = dynamics_.step(state_, motors, env_, kStepSeconds, rng_);
      if (c != CrashCause::kNone) last = c;
    }
    return last;
  }
};

TEST_F(QuadcopterTest, RestsOnGroundWithMotorsOff) {
  step_n({}, 1000);
  EXPECT_TRUE(state_.on_ground);
  EXPECT_FALSE(state_.crashed);
  EXPECT_NEAR(state_.position.z, 0.0, 1e-9);
}

TEST_F(QuadcopterTest, HoverThrottleApproximatelyBalances) {
  // hover = m*g / (4*Fmax) = 1.5*9.80665 / 29.6
  const double hover = 1.5 * 9.80665 / (4.0 * dynamics_.params().max_motor_thrust_n);
  state_.position.z = -10.0;
  state_.on_ground = false;
  step_n(uniform(hover), 2000);
  // Slight drift is fine; it must not gain or lose more than a metre in 2 s.
  EXPECT_NEAR(state_.altitude(), 10.0, 1.0);
}

TEST_F(QuadcopterTest, ClimbsUnderExcessThrust) {
  step_n(uniform(0.8), 1500);
  EXPECT_GT(state_.altitude(), 3.0);
  EXPECT_FALSE(state_.on_ground);
}

TEST_F(QuadcopterTest, MotorLagSmoothsCommands) {
  state_.position.z = -10.0;
  state_.on_ground = false;
  dynamics_.step(state_, uniform(1.0), env_, kStepSeconds, rng_);
  // After one 1 ms step the motors must not have reached the command.
  EXPECT_LT(state_.motors.value[0], 0.2);
}

TEST_F(QuadcopterTest, CutMotorsReachExactlyZero) {
  // Spin up on the ground (below hover, so the vehicle stays put), cut the
  // motors and sit for 60 s. The motor lag decays toward 0 by a factor of
  // ~0.95 per step; without the snap to target it parks every motor at a
  // subnormal value after about 15 s, where alpha * v rounds to zero.
  step_n(uniform(0.3), 1000);
  ASSERT_TRUE(state_.on_ground);
  ASSERT_GT(state_.motors.value[0], 0.25);
  step_n({}, 60000);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(state_.motors.value[i], 0.0) << "motor " << i;
  EXPECT_EQ(avis::testing::subnormal_fields(state_), std::vector<std::string>{});
}

TEST_F(QuadcopterTest, GentleDescentLandsWithoutCrash) {
  state_.position.z = -3.0;
  state_.on_ground = false;
  state_.velocity.z = 1.0;  // descending 1 m/s
  const double near_hover = 0.46;
  step_n(uniform(near_hover), 6000);
  EXPECT_TRUE(state_.on_ground);
  EXPECT_FALSE(state_.crashed);
}

TEST_F(QuadcopterTest, FastDescentIsAHardLanding) {
  state_.position.z = -8.0;
  state_.on_ground = false;
  state_.velocity.z = 3.5;  // descending fast, motors off
  const CrashCause cause = step_n({}, 4000);
  EXPECT_TRUE(state_.crashed);
  EXPECT_EQ(cause, CrashCause::kHardLanding);
}

TEST_F(QuadcopterTest, TiltedContactTipsOver) {
  // Gentle contact (below the hard-landing limit) but heavily tilted.
  state_.position.z = -0.15;
  state_.on_ground = false;
  state_.velocity.z = 0.3;
  state_.attitude.roll = 1.2;  // ~69 degrees
  const CrashCause cause = step_n({}, 2000);
  EXPECT_TRUE(state_.crashed);
  EXPECT_EQ(cause, CrashCause::kTippedOver);
}

TEST_F(QuadcopterTest, LateralImpactDetected) {
  // Gentle vertical contact, level attitude, but sliding fast sideways.
  state_.position.z = -0.15;
  state_.on_ground = false;
  state_.velocity = {6.0, 0.0, 0.2};
  const CrashCause cause = step_n({}, 2000);
  EXPECT_TRUE(state_.crashed);
  EXPECT_EQ(cause, CrashCause::kLateralImpact);
}

TEST_F(QuadcopterTest, CrashedVehicleStaysPut) {
  state_.position.z = -5.0;
  state_.on_ground = false;
  state_.velocity.z = 4.0;
  step_n({}, 3000);
  ASSERT_TRUE(state_.crashed);
  const geo::Vec3 resting = state_.position;
  step_n(uniform(1.0), 1000);  // full throttle does nothing to a wreck
  EXPECT_EQ(state_.position, resting);
}

TEST_F(QuadcopterTest, BatteryDrainsFasterAtHighThrust) {
  VehicleState high = state_;
  VehicleState low = state_;
  high.position.z = low.position.z = -50.0;
  high.on_ground = low.on_ground = false;
  util::Rng rng_a{1};
  util::Rng rng_b{1};
  for (int i = 0; i < 2000; ++i) {
    dynamics_.step(high, uniform(0.9), env_, kStepSeconds, rng_a);
    dynamics_.step(low, uniform(0.3), env_, kStepSeconds, rng_b);
  }
  EXPECT_LT(high.battery_remaining, low.battery_remaining);
  EXPECT_LT(high.battery_voltage, low.battery_voltage);
}

TEST_F(QuadcopterTest, YawTorqueFromDifferentialPairs) {
  state_.position.z = -10.0;
  state_.on_ground = false;
  MotorCommands m;
  m.value = {0.6, 0.6, 0.4, 0.4};  // CCW pair faster -> positive yaw torque
  step_n(m, 300);
  EXPECT_GT(state_.body_rates.z, 0.05);
}

TEST_F(QuadcopterTest, RollTorqueFromLeftRightSplit) {
  state_.position.z = -10.0;
  state_.on_ground = false;
  MotorCommands m;
  m.value = {0.4, 0.6, 0.6, 0.4};  // left motors (1=BL, 2=FL) faster -> +roll
  step_n(m, 200);
  EXPECT_GT(state_.body_rates.x, 0.05);
}

TEST(Environment, ObstacleContainment) {
  Obstacle box{{0, 0, -10}, {5, 5, 0}};
  EXPECT_TRUE(box.contains({2, 2, -5}));
  EXPECT_FALSE(box.contains({6, 2, -5}));
  Environment env;
  env.add_obstacle(box);
  EXPECT_TRUE(env.hits_obstacle({1, 1, -1}));
  EXPECT_FALSE(env.hits_obstacle({-1, 1, -1}));
}

TEST(Environment, FenceViolation) {
  Fence fence;
  fence.min_north = -5;
  fence.max_north = 30;
  fence.min_east = -5;
  fence.max_east = 30;
  fence.max_altitude = 40;
  EXPECT_FALSE(fence.violates({10, 10, -20}));
  EXPECT_TRUE(fence.violates({31, 10, -20}));
  EXPECT_TRUE(fence.violates({10, -6, -20}));
  EXPECT_TRUE(fence.violates({10, 10, -41}));
}

TEST(Environment, ObstacleCollisionCrashes) {
  Environment env;
  env.add_obstacle(Obstacle{{0.5, -2, -6}, {8, 2, 0}});
  QuadcopterDynamics dynamics;
  VehicleState state;
  state.position = {-2.0, 0.0, -4.0};
  state.on_ground = false;
  state.velocity = {4.0, 0.0, 0.0};
  util::Rng rng(1);
  CrashCause cause = CrashCause::kNone;
  for (int i = 0; i < 3000 && cause == CrashCause::kNone; ++i) {
    cause = dynamics.step(state, {}, env, kStepSeconds, rng);
    if (state.on_ground) break;
  }
  EXPECT_EQ(cause, CrashCause::kObstacle);
}

TEST(Simulator, AdvancesTimeAndNotifiesObservers) {
  Simulator simulator(Environment{}, QuadcopterParams{}, 7);
  int events = 0;
  simulator.add_observer([&](const StepEvent& e) {
    ++events;
    EXPECT_NE(e.state, nullptr);
  });
  for (int i = 0; i < 50; ++i) simulator.step({});
  EXPECT_EQ(simulator.now_ms(), 50);
  EXPECT_DOUBLE_EQ(simulator.now_seconds(), 0.05);
  EXPECT_EQ(events, 50);
}

TEST(Simulator, DeterministicForSameSeed) {
  Simulator a(Environment{}, QuadcopterParams{}, 3);
  Simulator b(Environment{}, QuadcopterParams{}, 3);
  MotorCommands m;
  m.value = {0.7, 0.6, 0.65, 0.62};
  for (int i = 0; i < 2000; ++i) {
    a.step(m);
    b.step(m);
  }
  EXPECT_EQ(a.state().position, b.state().position);
  EXPECT_EQ(a.state().velocity, b.state().velocity);
}

}  // namespace
}  // namespace avis::sim
