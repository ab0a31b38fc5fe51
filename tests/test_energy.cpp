#include <gtest/gtest.h>

#include "energy/energy_model.h"

namespace enviromic::energy {
namespace {

using sim::Time;

TEST(Battery, DrainClampsAtZero) {
  Battery b(10.0);
  b.drain(4.0);
  EXPECT_DOUBLE_EQ(b.remaining_joules(), 6.0);
  EXPECT_DOUBLE_EQ(b.consumed_joules(), 4.0);
  b.drain(100.0);
  EXPECT_DOUBLE_EQ(b.remaining_joules(), 0.0);
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, NegativeDrainIgnored) {
  Battery b(10.0);
  b.drain(-5.0);
  EXPECT_DOUBLE_EQ(b.remaining_joules(), 10.0);
}

TEST(EnergyModel, IdleDrainAccruesWithTime) {
  EnergyModel m;
  m.advance(Time::seconds_i(1000));
  const double expected =
      1000.0 * (kCpuIdleW + kRadioListenW * kListenDutyCycle);
  EXPECT_NEAR(m.battery().consumed_joules(), expected, 1e-9);
}

TEST(EnergyModel, AdvanceIsMonotonic) {
  EnergyModel m;
  m.advance(Time::seconds_i(10));
  const double after10 = m.battery().consumed_joules();
  m.advance(Time::seconds_i(5));  // going backwards is a no-op
  EXPECT_DOUBLE_EQ(m.battery().consumed_joules(), after10);
}

TEST(EnergyModel, RadioOffReducesBaseDrain) {
  EnergyModel on, off;
  off.set_radio_on(Time::zero(), false);
  on.advance(Time::seconds_i(1000));
  off.advance(Time::seconds_i(1000));
  EXPECT_GT(on.battery().consumed_joules(), off.battery().consumed_joules());
}

TEST(EnergyModel, SamplingAddsDrain) {
  EnergyModel plain, sampling;
  sampling.set_sampling(Time::zero(), true);
  plain.advance(Time::seconds_i(100));
  sampling.advance(Time::seconds_i(100));
  EXPECT_GT(sampling.battery().consumed_joules(),
            plain.battery().consumed_joules());
}

TEST(EnergyModel, AirtimeCharges) {
  EnergyModel m;
  m.charge_airtime(2.0, /*is_tx=*/true);
  EXPECT_NEAR(m.battery().consumed_joules(), 2.0 * kRadioTxW, 1e-12);
  m.charge_airtime(1.0, /*is_tx=*/false);
  EXPECT_NEAR(m.battery().consumed_joules(),
              2.0 * kRadioTxW + 1.0 * kRadioListenW, 1e-12);
}

TEST(EnergyModel, FlashWriteCharges) {
  EnergyModel m;
  m.charge_flash_write(1000000);
  // consumed == capacity - remaining loses a few ulps at 20 kJ scale.
  EXPECT_NEAR(m.battery().consumed_joules(), 1e6 * kFlashWriteJPerByte, 1e-9);
}

TEST(EnergyModel, DrainRateMonotonicInRate) {
  EnergyModel m;
  EXPECT_LT(m.drain_rate_at(0.0), m.drain_rate_at(1000.0));
  EXPECT_LT(m.drain_rate_at(1000.0), m.drain_rate_at(10000.0));
}

TEST(EnergyModel, DrainRateSaturatesAtFullAirtime) {
  EnergyConfig cfg;
  EnergyModel m(cfg);
  // Beyond the bitrate the radio cannot be more than 100% busy.
  EXPECT_DOUBLE_EQ(m.drain_rate_at(1e9), m.drain_rate_at(1e12));
}

TEST(EnergyModel, TtlEnergyMatchesPaperFormula) {
  EnergyConfig cfg;
  EnergyModel m(cfg);
  const double rate = 500.0;
  const double expected = cfg.battery_joules / m.drain_rate_at(rate);
  EXPECT_NEAR(m.ttl_energy_seconds(rate), expected, 1e-6);
}

TEST(EnergyModel, TtlEnergyShrinksAsBatteryDrains) {
  EnergyModel m;
  const double before = m.ttl_energy_seconds(100.0);
  m.charge_airtime(1000.0, true);
  EXPECT_LT(m.ttl_energy_seconds(100.0), before);
}

TEST(EnergyModel, MicaZScaleLifetimeIsDays) {
  // Sanity: an idle duty-cycled node should last for days, not hours —
  // "local battery lasts several days" (paper §II-B).
  EnergyConfig cfg;
  EnergyModel m(cfg);
  const double ttl_days = m.ttl_energy_seconds(0.0) / 86400.0;
  EXPECT_GT(ttl_days, 3.0);
  EXPECT_LT(ttl_days, 365.0);
}

}  // namespace
}  // namespace enviromic::energy
