// On/Off (sleep) scheduling policies (paper §4.3).
//
// Each provisioner observes the finished epoch and returns the number of
// servers that should be committed (active + in transition) for the next
// one. Policies:
//   * StaticProvisioner       — fixed fleet ("over-provisioned for every
//                                application", §3.1 baseline)
//   * DelayThresholdProvisioner — reactive On/Off keyed on end-to-end delay;
//                                the DVS-oblivious actor of §5.1 (ref [29])
//   * UtilizationBandProvisioner — keeps predicted utilization in a band
//                                with hysteresis and a minimum dwell time
//   * PredictiveProvisioner   — provisions for the demand predicted one boot
//                                time ahead plus a safety margin (ref [18],
//                                Chen et al., energy-aware provisioning)
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "cluster/service_cluster.h"
#include "onoff/predictor.h"

namespace epm::onoff {

class Provisioner {
 public:
  virtual ~Provisioner() = default;
  virtual std::string name() const = 0;
  /// Number of committed servers to aim for in the next epoch.
  virtual std::size_t decide(const cluster::ServiceCluster& cluster,
                             const cluster::EpochResult& last) = 0;
};

class StaticProvisioner final : public Provisioner {
 public:
  explicit StaticProvisioner(std::size_t count) : count_(count) {}
  std::string name() const override { return "static"; }
  std::size_t decide(const cluster::ServiceCluster&,
                     const cluster::EpochResult&) override {
    return count_;
  }

 private:
  std::size_t count_;
};

struct DelayThresholdConfig {
  /// Add servers when mean response exceeds target * up_factor.
  double up_factor = 1.0;
  /// Remove one server when response stays under target * down_factor.
  double down_factor = 0.5;
  std::size_t add_step = 2;
  std::size_t min_servers = 1;
  /// Consecutive calm epochs required before shrinking.
  std::size_t down_dwell_epochs = 3;
};

class DelayThresholdProvisioner final : public Provisioner {
 public:
  explicit DelayThresholdProvisioner(DelayThresholdConfig config = {});
  std::string name() const override { return "delay-threshold"; }
  std::size_t decide(const cluster::ServiceCluster& cluster,
                     const cluster::EpochResult& last) override;

 private:
  DelayThresholdConfig config_;
  std::size_t calm_epochs_ = 0;
};

/// The utilization band re-sizes toward 0.65 and keeps at least one server.
struct UtilizationBandConfig {
  double lower = 0.45;
  std::size_t min_dwell_epochs = 2;  ///< epochs between size changes
};

class UtilizationBandProvisioner final : public Provisioner {
 public:
  explicit UtilizationBandProvisioner(UtilizationBandConfig config = {});
  std::string name() const override { return "utilization-band"; }
  std::size_t decide(const cluster::ServiceCluster& cluster,
                     const cluster::EpochResult& last) override;

 private:
  UtilizationBandConfig config_;
  std::size_t epochs_since_change_ = 1000;
  std::size_t last_target_ = 0;
};

struct PredictiveConfig {
  double target_utilization = 0.65;
  /// Ignore target changes of at most this many servers, so prediction
  /// jitter does not translate into boot churn.
  std::size_t hysteresis_servers = 1;
  SeasonalPredictorConfig predictor;
};

class PredictiveProvisioner final : public Provisioner {
 public:
  explicit PredictiveProvisioner(PredictiveConfig config = {});
  std::string name() const override { return "predictive"; }
  std::size_t decide(const cluster::ServiceCluster& cluster,
                     const cluster::EpochResult& last) override;
  const SeasonalPredictor& predictor() const { return predictor_; }

 private:
  PredictiveConfig config_;
  SeasonalPredictor predictor_;
};

/// Servers needed so that per-server utilization is `target_utilization`
/// when serving `arrival_rate` of requests with `service_demand_s` CPU each
/// at relative capacity `capacity_fraction` per server.
std::size_t servers_for_load(double arrival_rate, double service_demand_s,
                             double capacity_fraction, double target_utilization);

}  // namespace epm::onoff
