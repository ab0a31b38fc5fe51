#include "energy/energy_model.h"

#include <limits>

#include "net/radio.h"

namespace enviromic::energy {

namespace {
/// ADC + amp while recording.
constexpr double kSamplingW = 0.0100;
}  // namespace

double EnergyModel::base_power_w() const {
  double w = kCpuIdleW;
  if (radio_on_) w += kRadioListenW * kListenDutyCycle;
  if (sampling_) w += kSamplingW;
  return w;
}

void EnergyModel::advance(sim::Time now) {
  if (now <= last_) return;
  const double dt = (now - last_).to_seconds();
  battery_.drain(dt * base_power_w());
  if (radio_on_) radio_on_s_ += dt;
  last_ = now;
}

double EnergyModel::remaining_joules_at(sim::Time now) const {
  double j = battery_.remaining_joules();
  if (now > last_) j -= (now - last_).to_seconds() * base_power_w();
  return j > 0.0 ? j : 0.0;
}

double EnergyModel::radio_on_seconds_at(sim::Time now) const {
  double s = radio_on_s_;
  if (radio_on_ && now > last_) s += (now - last_).to_seconds();
  return s;
}

void EnergyModel::set_radio_on(sim::Time now, bool on) {
  advance(now);
  radio_on_ = on;
}

void EnergyModel::set_sampling(sim::Time now, bool sampling) {
  advance(now);
  sampling_ = sampling;
}

void EnergyModel::charge_airtime(double seconds, bool is_tx) {
  // Air time is charged at full radio power on top of the duty-cycled
  // listen baseline.
  battery_.drain(seconds * (is_tx ? kRadioTxW : kRadioListenW));
}

void EnergyModel::charge_flash_write(std::uint64_t bytes) {
  battery_.drain(static_cast<double>(bytes) * kFlashWriteJPerByte);
}

double EnergyModel::drain_rate_at(double rate_bytes_per_s) const {
  const double air_fraction =
      std::min(1.0, rate_bytes_per_s * 8.0 / net::kBitrateBps);
  return kCpuIdleW + kRadioListenW * kListenDutyCycle +
         air_fraction * kRadioTxW;
}

double EnergyModel::ttl_energy_seconds(double rate_bytes_per_s) const {
  const double d = drain_rate_at(rate_bytes_per_s);
  if (d <= 0.0) return std::numeric_limits<double>::infinity();
  return battery_.remaining_joules() / d;
}

}  // namespace enviromic::energy
