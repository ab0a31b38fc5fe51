// Per-node energy accounting with MicaZ-class rates, feeding the paper's
// TTL_energy = E(t) / D(R(t)) computation (§II-B): D(R) is the drain rate if
// the node keeps migrating data out at its acquisition rate R — idle power
// plus the radio active for the fraction of time rate R requires.
#pragma once

#include "energy/battery.h"
#include "sim/time.h"

namespace enviromic::energy {

/// Duty-cycled MCU average.
inline constexpr double kCpuIdleW = 0.0024;
/// CC2420 RX/listen, 19.7 mA @ 3 V.
inline constexpr double kRadioListenW = 0.0590;
/// CC2420 TX 0 dBm, 17.4 mA @ 3 V.
inline constexpr double kRadioTxW = 0.0520;
inline constexpr double kFlashWriteJPerByte = 8e-8;
/// Radios duty-cycle their listen mode (low-power listening); only this
/// fraction of listen time is charged.
inline constexpr double kListenDutyCycle = 0.05;

struct EnergyConfig {
  double battery_joules = 20000.0;  //!< ~2 AA alkaline at usable depth
};

class EnergyModel {
 public:
  explicit EnergyModel(EnergyConfig cfg = {}) : battery_(cfg.battery_joules) {}

  const Battery& battery() const { return battery_; }

  /// Accrue time-based drain (CPU idle + duty-cycled listen + sampling) up
  /// to `now`. Call before reading the battery or on activity transitions.
  void advance(sim::Time now);

  void set_radio_on(sim::Time now, bool on);
  void set_sampling(sim::Time now, bool sampling);

  /// Battery joules projected to `now` WITHOUT accruing state: the pending
  /// segment since the last advance() is subtracted read-only. Telemetry
  /// probes use this instead of advance() so a sampled run drains the
  /// battery in exactly the same float-add order as a dark run.
  double remaining_joules_at(sim::Time now) const;

  /// Cumulative radio-on seconds projected to `now`, also read-only; the
  /// duty-cycle gauge is this over elapsed time. Accrual itself happens in
  /// advance(), which the simulation already calls on every transition.
  double radio_on_seconds_at(sim::Time now) const;

  /// Charge radio air time (seconds on the air), from the radio callbacks.
  void charge_airtime(double seconds, bool is_tx);

  /// Charge a flash write of `bytes`.
  void charge_flash_write(std::uint64_t bytes);

  /// The paper's D(R): drain rate (W) if this node moves data out at `rate`
  /// bytes/second.
  double drain_rate_at(double rate_bytes_per_s) const;

  /// TTL_energy in seconds for acquisition rate R (paper §II-B). Infinite
  /// (very large) when the rate is ~zero.
  double ttl_energy_seconds(double rate_bytes_per_s) const;

 private:
  double base_power_w() const;

  Battery battery_;
  sim::Time last_ = sim::Time::zero();
  bool radio_on_ = true;
  bool sampling_ = false;
  double radio_on_s_ = 0.0;  //!< accrued radio-on time, advance()-driven
};

}  // namespace enviromic::energy
