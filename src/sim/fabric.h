// Execution fabric: one interface over "a single kernel pretending to be N
// datacenters" and "N federated kernels".
//
// World models that span datacenters (the fleet retry storm, geo re-routing,
// outage ride-through) are written against this interface: shard-local work
// goes through kernel(shard), cross-shard interactions through send(). The
// two implementations then give an in-run A/B with identical event
// semantics:
//
//   * SingleKernelFabric — every "shard" is the same sim::Simulator; send()
//     is an immediate schedule_at(now + delay). This is the serial ground
//     truth the differential and golden suites compare against, and the
//     baseline arm of the kernel_federation bench gate.
//   * ShardedFabric — an adapter over sim::ShardedSimulator; send() goes
//     through the conservative mailbox protocol.
//
// A world produces bit-identical results on both fabrics iff its cross-shard
// interactions are insensitive to same-timestamp delivery order across
// *different* sources (per-(src,dst) FIFO is guaranteed by both). The fleet
// models achieve that with source-indexed inboxes drained in source order at
// epoch boundaries — see faults/fleet_storm.h.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

#include "core/require.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace epm::sim {

class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual std::size_t shard_count() const = 0;
  /// The kernel executing shard `i`'s events. On a single-kernel fabric
  /// every shard maps to the same Simulator.
  virtual Simulator& kernel(std::size_t shard) = 0;
  /// Cross-shard message: `fn` runs on shard `dst` at
  /// kernel(src).now() + delay_s. Same contract as ShardedSimulator::send
  /// (per-(src,dst) FIFO; on the sharded fabric delay_s must respect the
  /// lookahead floor).
  virtual void send(std::size_t src, std::size_t dst, double delay_s,
                    EventFn fn) = 0;
  virtual std::size_t run_until(double until_s) = 0;
  virtual std::size_t pending() const = 0;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void send(std::size_t src, std::size_t dst, double delay_s, F&& fn) {
    send(src, dst, delay_s, EventFn(std::forward<F>(fn)));
  }
};

/// Ground-truth fabric: one kernel carries every shard's events, so the
/// global event order is the plain single-Simulator order.
class SingleKernelFabric final : public Fabric {
 public:
  explicit SingleKernelFabric(std::size_t shards = 1) : shards_(shards) {
    require(shards >= 1, "SingleKernelFabric: need at least one shard");
  }

  using Fabric::send;  // keep the template convenience overload visible

  std::size_t shard_count() const override { return shards_; }
  Simulator& kernel(std::size_t shard) override {
    require(shard < shards_, "SingleKernelFabric: shard index out of range");
    return sim_;
  }
  void send(std::size_t src, std::size_t dst, double delay_s,
            EventFn fn) override {
    require(src < shards_ && dst < shards_,
            "SingleKernelFabric: shard index out of range");
    require(delay_s >= 0.0, "SingleKernelFabric: negative delay");
    sim_.schedule_at(sim_.now() + delay_s, std::move(fn));
  }
  std::size_t run_until(double until_s) override {
    return sim_.run_until(until_s);
  }
  std::size_t pending() const override { return sim_.pending(); }

  Simulator& sim() { return sim_; }

 private:
  std::size_t shards_;
  Simulator sim_;
};

/// Federated fabric: a non-owning adapter over ShardedSimulator.
class ShardedFabric final : public Fabric {
 public:
  explicit ShardedFabric(ShardedSimulator& fed) : fed_(fed) {}

  using Fabric::send;  // keep the template convenience overload visible

  std::size_t shard_count() const override { return fed_.shard_count(); }
  Simulator& kernel(std::size_t shard) override { return fed_.shard(shard); }
  void send(std::size_t src, std::size_t dst, double delay_s,
            EventFn fn) override {
    fed_.send(src, dst, delay_s, std::move(fn));
  }
  std::size_t run_until(double until_s) override {
    return fed_.run_until(until_s);
  }
  std::size_t pending() const override { return fed_.pending(); }

  ShardedSimulator& federation() { return fed_; }

 private:
  ShardedSimulator& fed_;
};

}  // namespace epm::sim
