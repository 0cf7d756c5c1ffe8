#include "faults/fleet_storm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "cluster/remote_ref.h"
#include "core/require.h"
#include "faults/storm_dc.h"

namespace epm::faults {

namespace {

/// Queue bound of a datacenter's naive (undefended) arm.
constexpr std::size_t kNaiveQueueCapacity = 120000;

/// One datacenter: the storm datacenter every retry-storm world steps, plus
/// the fleet's forwarding state. Heap-allocated (stable address: event
/// callbacks capture raw pointers) and touched only by events on its own
/// shard — forward/response arrivals execute on the destination shard, so
/// during a federation window each FleetDc belongs to exactly one worker.
struct FleetDc {
  std::size_t index;
  std::size_t shard;
  StormDc<workload::ClientPopulation> storm;
  /// inbox[src]: forwarded refs arrived since the last epoch boundary.
  /// Drained in src order at begin_epoch, so admission order never depends
  /// on physical arrival interleaving — the fabric-equality condition.
  std::vector<std::vector<std::uint32_t>> inbox;
  std::vector<std::vector<std::uint32_t>> fwd;   ///< [peer] epoch staging
  std::vector<std::vector<std::uint32_t>> resp;  ///< [owner] cohort scratch
  std::vector<std::uint32_t> local_ids;
  std::vector<std::size_t> peers;  ///< other dcs, rotation starting index+1
  std::size_t rr_peer = 0;
  double reroute_acc = 0.0;
  bool sessions_dropped = false;
  /// avoid[dc]: active broadcast disruptions at that peer, maintained by
  /// commutative ++/-- arrival events. Nonzero steers forwards elsewhere
  /// (only consulted when grid_broadcasts is on).
  std::vector<std::uint32_t> avoid;
  std::uint64_t grid_signals = 0;  ///< broadcast edges received

  // Cumulative cross-datacenter counters.
  std::uint64_t forwarded = 0;
  std::uint64_t arrived = 0;  ///< refs landed in our inbox
  std::uint64_t remote_admitted = 0;
  std::uint64_t remote_served = 0;
  std::uint64_t remote_shed = 0;
  std::uint64_t responses_received = 0;

  FleetDc(std::size_t idx, std::size_t shard_idx, const FleetStormConfig& cfg,
          workload::ClientPopulationConfig pop_cfg, std::size_t dcs)
      : index(idx),
        shard(shard_idx),
        storm(std::move(pop_cfg), cfg.defense, kNaiveQueueCapacity),
        inbox(dcs),
        fwd(dcs),
        resp(dcs),
        avoid(dcs, 0) {
    for (std::size_t p = 1; p < dcs; ++p) peers.push_back((idx + p) % dcs);
  }
};

class FleetWorld {
 public:
  FleetWorld(const FleetStormConfig& config, sim::Fabric& fabric)
      : config_(config), fabric_(fabric), net_(make_fleet_network(config)) {
    const std::size_t dcs = config.sites.size();
    require(config.clients.clients <=
                static_cast<std::size_t>(cluster::kRemoteRefMaxId) + 1,
            "FleetStorm: per-datacenter population exceeds the 28-bit "
            "remote-ref id bound");
    require(config.epoch_s > 0.0, "FleetStorm: epoch must be positive");
    require(config.service_capacity_rps > 0.0,
            "FleetStorm: service capacity must be positive");
    require(!config.disruptions.empty(),
            "FleetStorm: need at least one disruption");
    for (const FleetDisruption& dis : config.disruptions) {
      require(dis.dc < dcs, "FleetStorm: disruption dc out of range");
      require(dis.start_s > 0.0 && dis.duration_s > 0.0,
              "FleetStorm: disruption must have positive start and duration");
      require(dis.capacity_factor >= 0.0 && dis.capacity_factor <= 1.0 &&
                  std::isfinite(dis.capacity_factor),
              "FleetStorm: disruption capacity factor outside [0, 1]");
      require(config.horizon_s > dis.end_s(),
              "FleetStorm: horizon must extend past every disruption");
    }
    require(config.reroute_fraction >= 0.0 && config.reroute_fraction <= 1.0,
            "FleetStorm: reroute fraction outside [0, 1]");
    require(config.sla_goodput_fraction > 0.0 &&
                config.sla_goodput_fraction <= 1.0,
            "FleetStorm: SLA fraction outside (0, 1]");
    require(config.recovery_window_epochs >= 1,
            "FleetStorm: recovery window must be at least one epoch");
    require(fabric.shard_count() >= 1 && dcs % fabric.shard_count() == 0,
            "FleetStorm: fabric shard count must divide the datacenter "
            "count (contiguous groups)");

    dt_ = config.epoch_s;
    epochs_ = checked_count(std::ceil(config.horizon_s / dt_),
                            "FleetStorm: horizon / epoch");
    // The pre-fault window ends at the FIRST disturbance; recovery is
    // judged from the LAST clear.
    double first_start_s = config.disruptions.front().start_s;
    for (const FleetDisruption& dis : config.disruptions) {
      first_start_s = std::min(first_start_s, dis.start_s);
      last_clear_s_ = std::max(last_clear_s_, dis.end_s());
    }
    outage_start_epoch_ =
        checked_count(first_start_s / dt_, "FleetStorm: first start / epoch");
    require(outage_start_epoch_ / 2 + config.recovery_window_epochs <=
                outage_start_epoch_,
            "FleetStorm: outage starts too early for a pre-fault SLA window");

    const std::size_t per_shard = dcs / fabric.shard_count();
    for (std::size_t d = 0; d < dcs; ++d) {
      workload::ClientPopulationConfig pop = config.clients;
      pop.seed += d;  // distinct but reproducible per-datacenter streams
      dcs_.push_back(
          std::make_unique<FleetDc>(d, d / per_shard, config, pop, dcs));
    }
  }

  FleetStormOutcome run() {
    for (std::size_t d = 0; d < dcs_.size(); ++d) {
      FleetWorld* w = this;
      fabric_.kernel(dcs_[d]->shard).schedule_at(
          0.0, [w, d] { w->drive(d, 0); });
    }
    // Defended fleets hear the grid: every broadcast disruption announces
    // its onset and clear to the peers, one latency floor later. The ++/--
    // arrivals commute, so the fabric-equality argument is untouched; with
    // broadcasts off (or none broadcast) nothing is scheduled.
    if (config_.grid_broadcasts) {
      for (const FleetDisruption& dis : config_.disruptions) {
        if (!dis.broadcast) continue;
        schedule_broadcast(dis.dc, dis.start_s, +1);
        schedule_broadcast(dis.dc, dis.end_s(), -1);
      }
    }
    events_run_ = fabric_.run_until(static_cast<double>(epochs_) * dt_);
    return finish();
  }

 private:
  /// Epoch driver for datacenter d: end_epoch(e-1) then begin_epoch(e),
  /// both at t = e*dt. The epoch's completion cohort is scheduled *inside*
  /// begin_epoch, i.e. before the next driver — at every boundary the
  /// same-timestamp FIFO fires the cohort first, replaying the serial
  /// storm's loop order. drive(epochs) only closes the final epoch.
  void drive(std::size_t d, std::size_t e) {
    if (e > 0) end_epoch(d, e - 1);
    if (e >= epochs_) return;
    begin_epoch(d, e);
    FleetWorld* w = this;
    fabric_.kernel(dcs_[d]->shard)
        .schedule_at(static_cast<double>(e + 1) * dt_,
                     [w, d, e] { w->drive(d, e + 1); });
  }

  /// Announces a disruption edge: an event on the home shard at `when_s`
  /// sends one counter message per peer.
  void schedule_broadcast(std::size_t home, double when_s, int delta) {
    FleetWorld* w = this;
    fabric_.kernel(dcs_[home]->shard).schedule_at(when_s, [w, home, delta] {
      FleetDc& src = *w->dcs_[home];
      for (const std::size_t peer : src.peers) {
        FleetDc* p = w->dcs_[peer].get();
        w->fabric_.send(src.shard, p->shard,
                        w->net_.latency_floor_s(home, peer),
                        [p, home, delta] {
                          if (delta > 0) {
                            ++p->avoid[home];
                          } else if (p->avoid[home] > 0) {
                            --p->avoid[home];
                          }
                          ++p->grid_signals;
                        });
      }
    });
  }

  /// Deterministic fractional re-route: no randomness, an accumulator
  /// forwards exactly reroute_fraction of eligible attempts, spread
  /// round-robin over the peers. Returns true when the attempt was staged.
  bool try_forward(FleetDc& dc, std::uint32_t id) {
    if (dc.peers.empty() || config_.reroute_fraction <= 0.0) return false;
    dc.reroute_acc += config_.reroute_fraction;
    if (dc.reroute_acc < 1.0) return false;
    dc.reroute_acc -= 1.0;
    // Steer around peers with an active broadcast disruption. With nothing
    // avoided k == 0 and this is the plain rotation (pick rr_peer, advance
    // by one).
    const std::size_t n = dc.peers.size();
    std::size_t k = 0;
    while (k < n && dc.avoid[dc.peers[(dc.rr_peer + k) % n]] != 0) ++k;
    if (k == n) k = 0;  // every peer degraded: plain rotation beats nothing
    const std::size_t peer = dc.peers[(dc.rr_peer + k) % n];
    dc.rr_peer = (dc.rr_peer + k + 1) % n;
    dc.fwd[peer].push_back(
        cluster::pack_remote_ref(static_cast<std::uint32_t>(dc.index), id));
    ++dc.forwarded;
    return true;
  }

  /// Ships the epoch's staged forwards, one message per peer, arriving one
  /// latency floor later. The arrival appends to the peer's src-indexed
  /// inbox; nothing else, so same-timestamp arrivals commute.
  void flush_forwards(FleetDc& dc) {
    for (std::size_t peer = 0; peer < dcs_.size(); ++peer) {
      if (dc.fwd[peer].empty()) continue;
      FleetDc* dst = dcs_[peer].get();
      fabric_.send(dc.shard, dst->shard, net_.latency_floor_s(dc.index, peer),
                   [dst, src = dc.index, batch = dc.fwd[peer]] {
                     auto& box = dst->inbox[src];
                     box.insert(box.end(), batch.begin(), batch.end());
                     dst->arrived += batch.size();
                   });
      dc.fwd[peer].clear();
    }
  }

  void begin_epoch(std::size_t d, std::size_t e) {
    FleetDc& dc = *dcs_[d];
    const double t0 = static_cast<double>(e) * dt_;
    const double t1 = t0 + dt_;
    double factor = 1.0;
    bool drop_wanted = false;
    for (const FleetDisruption& dis : config_.disruptions) {
      if (dis.dc != d || t0 < dis.start_s || t0 >= dis.end_s()) continue;
      factor *= dis.capacity_factor;
      if (dis.drop_sessions) drop_wanted = true;
    }
    const bool dark = factor == 0.0;
    const bool defended = config_.defense.enabled;

    if (dark && drop_wanted && !dc.sessions_dropped) {
      dc.storm.population.disconnect_all(t0);
      dc.sessions_dropped = true;
    } else if (!dark && dc.sessions_dropped) {
      // Re-arm for a later disruption.
      dc.sessions_dropped = false;
    }
    auto& storm = dc.storm;
    const std::vector<std::uint32_t>& due = storm.open(t0, dt_);

    // 1. Forwarded work that arrived during the previous epoch, in source
    // order. It carried its admission verdict at the owner already, so a
    // loss here is resolved by the owner's client timeout — only the token
    // bucket and the queue gate it (the breaker protects local clients
    // against a dark *local* service, which this work has already left).
    for (std::size_t src = 0; src < dcs_.size(); ++src) {
      for (const std::uint32_t ref : dc.inbox[src]) {
        if (dark || (defended && !storm.bucket.try_acquire()) ||
            !storm.queue.try_push(ref, t0)) {
          ++dc.remote_shed;
        } else {
          ++dc.remote_admitted;
        }
      }
      dc.inbox[src].clear();
    }

    // 2. Local attempts due this epoch, through the admission stack. A dark
    // service forwards (ride-through) what the re-route budget allows and
    // fails the rest; queue overflow likewise forwards before shedding.
    // Verdicts never read client state, so they are decided in batch order
    // and the batch is answered in one call (a forwarded attempt counts as
    // admitted: the owner's client waits on it).
    for (std::size_t i = 0; i < due.size(); ++i) {
      const std::uint32_t id = due[i];
      if (dark) {
        if (try_forward(dc, id)) {
          storm.verdicts[i] = 1;
        } else {
          ++storm.dark;
        }
      } else if (defended && !storm.breaker.allow()) {
        ++storm.shed_breaker;
      } else if (defended && !storm.bucket.try_acquire()) {
        ++storm.shed_bucket;
      } else if (!storm.queue.try_push(
                     cluster::pack_remote_ref(
                         static_cast<std::uint32_t>(d), id),
                     t0)) {
        if (try_forward(dc, id)) {
          storm.verdicts[i] = 1;
        } else {
          ++storm.shed_queue;
        }
      } else {
        storm.verdicts[i] = 1;
      }
    }
    storm.answer(t0);
    flush_forwards(dc);

    // 3. Drain the accept queue within the epoch's service credit; the
    // completion cohort lands at the epoch end. A dark service serves
    // nothing and keeps no carry. Brownouts scale the credit; factor == 1.0
    // multiplies exactly (IEEE identity), keeping disruption-free runs
    // bit-identical.
    const std::vector<std::uint32_t>& cohort = storm.take_cohort(
        dark ? 0.0
             : storm.carry() + config_.service_capacity_rps * factor * dt_);
    if (!cohort.empty()) {
      FleetWorld* w = this;
      fabric_.kernel(dc.shard).schedule_at(
          t1, [w, d, t1, cohort] { w->complete(d, t1, cohort); });
    }
  }

  /// Fires the epoch's completion cohort on datacenter d: local ids are
  /// served in one batch; forwarded work is answered with one response
  /// message per owner, arriving one latency floor later and served there
  /// as one batch too. Each forwarded attempt lives in exactly one peer's
  /// queue, so same-timestamp response events touch disjoint waiting
  /// clients and commute.
  void complete(std::size_t d, double t1,
                const std::vector<std::uint32_t>& cohort) {
    FleetDc& dc = *dcs_[d];
    dc.local_ids.clear();
    for (auto& r : dc.resp) r.clear();
    for (const std::uint32_t ref : cohort) {
      const std::uint32_t owner = cluster::remote_ref_owner(ref);
      if (owner == d) {
        dc.local_ids.push_back(cluster::remote_ref_client(ref));
      } else {
        dc.resp[owner].push_back(cluster::remote_ref_client(ref));
      }
    }
    if (!dc.local_ids.empty()) {
      dc.storm.population.on_served_batch(dc.local_ids.data(),
                                          dc.local_ids.size(), t1);
    }
    for (std::size_t owner = 0; owner < dcs_.size(); ++owner) {
      if (dc.resp[owner].empty()) continue;
      dc.remote_served += dc.resp[owner].size();
      const double lat = net_.latency_floor_s(d, owner);
      FleetDc* op = dcs_[owner].get();
      fabric_.send(dc.shard, op->shard, lat,
                   [op, ids = dc.resp[owner], t = t1 + lat] {
                     op->responses_received += ids.size();
                     op->storm.population.on_served_batch(ids.data(),
                                                          ids.size(), t);
                   });
    }
  }

  void end_epoch(std::size_t d, std::size_t e) {
    dcs_[d]->storm.close(static_cast<double>(e) * dt_ + dt_, dt_);
  }

  FleetStormOutcome finish() {
    FleetStormOutcome out;
    out.epochs = epochs_;
    // Pre-fault basis before the FIRST disturbance, recovery from the LAST
    // clear (see the constructor).
    const RecoveryCriteria criteria{dt_, outage_start_epoch_, last_clear_s_,
                                    config_.sla_goodput_fraction,
                                    config_.recovery_window_epochs};

    std::uint64_t intents = 0;
    std::uint64_t fresh = 0;
    std::uint64_t arrived = 0;
    std::uint64_t drained = 0;
    std::uint64_t inboxed = 0;
    std::uint64_t responses_sent = 0;
    std::uint64_t responses_received = 0;
    bool ok = true;
    std::string report;
    const auto violation = [&](std::string what) {
      ok = false;
      if (report.empty()) report = std::move(what);
    };

    for (const auto& dcp : dcs_) {
      const FleetDc& dc = *dcp;
      ensure(dc.storm.epochs_closed() == epochs_,
             "FleetStorm: epoch series incomplete — driver chain broken");
      FleetDcOutcome o;
      o.site = config_.sites[dc.index].name;
      dc.storm.fill(o, criteria);
      o.forwarded = dc.forwarded;
      o.remote_admitted = dc.remote_admitted;
      o.remote_served = dc.remote_served;
      o.remote_shed = dc.remote_shed;
      o.grid_signals = dc.grid_signals;
      out.fleet_prefault_goodput_rps += o.prefault_goodput_rps;
      out.fleet_end_goodput_rps += o.end_goodput_rps;
      if (!o.conservation_ok) violation(o.site + ": " + o.conservation_report);

      intents += o.intents;
      fresh += o.served_fresh;
      out.forwarded += dc.forwarded;
      out.remote_served += dc.remote_served;
      out.remote_shed += dc.remote_shed;
      arrived += dc.arrived;
      drained += dc.remote_admitted + dc.remote_shed;
      for (const auto& box : dc.inbox) inboxed += box.size();
      responses_sent += dc.remote_served;
      responses_received += dc.responses_received;
      out.dcs.push_back(std::move(o));
    }

    // Fleet flow identities. Every ref that landed in an inbox was drained
    // or is still in the inbox; what was forwarded but has not landed (and
    // every response not yet received) is in flight in the fabric — both
    // gaps must be non-negative. A federation that loses or duplicates a
    // mailbox message breaks one of these.
    if (arrived != drained + inboxed) {
      violation("fleet flow: arrived refs != drained + inboxed");
    }
    if (out.forwarded < arrived) {
      violation("fleet flow: more refs arrived than were forwarded");
    }
    if (responses_sent < responses_received) {
      violation("fleet flow: more responses received than sent");
    }

    out.fleet_goodput_fraction =
        intents > 0
            ? static_cast<double>(fresh) / static_cast<double>(intents)
            : 1.0;
    out.conservation_ok = ok;
    out.conservation_report = report;
    out.events_run = events_run_;
    out.events_pending = fabric_.pending();
    return out;
  }

  const FleetStormConfig& config_;
  sim::Fabric& fabric_;
  network::InterDcNetwork net_;
  double dt_ = 1.0;
  std::size_t epochs_ = 0;
  std::size_t outage_start_epoch_ = 0;
  double last_clear_s_ = 0.0;  ///< latest clear over the disruptions
  std::vector<std::unique_ptr<FleetDc>> dcs_;
  std::size_t events_run_ = 0;
};

}  // namespace

network::InterDcNetwork make_fleet_network(const FleetStormConfig& config) {
  require(config.sites.size() >= 2,
          "FleetStorm: need at least two datacenters");
  require(config.sites.size() <=
              static_cast<std::size_t>(cluster::kRemoteRefMaxOwner) + 1,
          "FleetStorm: fleet exceeds the 4-bit remote-ref owner bound");
  std::vector<network::InterDcSite> sites;
  sites.reserve(config.sites.size());
  for (const auto& s : config.sites) {
    sites.push_back({s.name, s.latitude_deg, s.longitude_deg});
  }
  return network::InterDcNetwork(std::move(sites),
                                 config.latency_detour_factor,
                                 config.min_latency_floor_s);
}

sim::ShardedConfig make_fleet_sharded_config(const network::InterDcNetwork& net,
                                             std::size_t shards,
                                             std::size_t threads) {
  require(shards >= 1, "make_fleet_sharded_config: need at least one shard");
  require(net.site_count() % shards == 0,
          "make_fleet_sharded_config: shard count must divide the "
          "datacenter count");
  sim::ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  if (shards == 1) return cfg;  // no cross-shard constraint to derive
  const std::size_t group = net.site_count() / shards;
  cfg.lookahead_s.assign(shards * shards, 0.0);
  for (std::size_t a = 0; a < shards; ++a) {
    for (std::size_t b = 0; b < shards; ++b) {
      if (a == b) continue;
      double floor = std::numeric_limits<double>::infinity();
      for (std::size_t i = a * group; i < (a + 1) * group; ++i) {
        for (std::size_t j = b * group; j < (b + 1) * group; ++j) {
          floor = std::min(floor, net.latency_floor_s(i, j));
        }
      }
      cfg.lookahead_s[a * shards + b] = floor;
    }
  }
  return cfg;
}

FleetStormOutcome run_fleet_storm(const FleetStormConfig& config,
                                  sim::Fabric& fabric) {
  FleetWorld world(config, fabric);
  return world.run();
}

FleetStormOutcome run_fleet_storm(const FleetStormConfig& config,
                                  std::size_t shards, std::size_t threads) {
  if (shards == kSingleKernel) {
    sim::SingleKernelFabric fabric(config.sites.size());
    return run_fleet_storm(config, fabric);
  }
  sim::ShardedSimulator fed(make_fleet_sharded_config(
      make_fleet_network(config), shards, threads));
  sim::ShardedFabric fabric(fed);
  return run_fleet_storm(config, fabric);
}

std::vector<FleetDisruption> to_fleet_disruptions(
    const std::vector<ExpandedDcFault>& expanded) {
  std::vector<FleetDisruption> out;
  out.reserve(expanded.size());
  for (const ExpandedDcFault& x : expanded) {
    FleetDisruption dis;
    dis.dc = x.dc;
    dis.start_s = x.onset_s;
    dis.duration_s = x.clear_s - x.onset_s;
    dis.broadcast = true;
    switch (x.kind) {
      case GridEventKind::kOutage:
        dis.capacity_factor = 0.0;
        dis.drop_sessions = true;
        break;
      case GridEventKind::kBrownout:
        dis.capacity_factor = 1.0 - std::clamp(x.severity, 0.0, 1.0);
        break;
      case GridEventKind::kPriceSpike:
      case GridEventKind::kDemandResponse:
        dis.capacity_factor = 1.0;  // elastic-power signal, no capacity loss
        break;
      case GridEventKind::kControllerKill:
        // Control-plane-only loss: serving capacity is untouched; the
        // control_chaos world maps this onto controller crash windows.
        dis.capacity_factor = 1.0;
        break;
    }
    out.push_back(dis);
  }
  return out;
}

FleetStormConfig make_reference_fleet_storm_config(std::size_t dcs,
                                                   std::size_t clients_per_dc,
                                                   std::uint64_t seed) {
  require(clients_per_dc >= 1,
          "make_reference_fleet_storm_config: need at least one client");
  FleetStormConfig config;
  config.sites = macro::make_reference_fleet_sites(dcs);
  config.clients.clients = clients_per_dc;
  config.clients.seed = seed;
  config.clients.think_time_s = 40.0;
  config.clients.start_spread_s = 40.0;
  config.clients.request_timeout_s = 4.0;
  // Fast enough reconnect spread that the post-outage surge lands inside
  // the 120 s horizon.
  config.clients.reconnect_spread_s = 15.0;
  // Capacity sized ~25% above each datacenter's steady-state demand
  // (clients / think time), mirroring the single-DC reference scenario.
  const double demand =
      static_cast<double>(clients_per_dc) / config.clients.think_time_s;
  const double capacity = std::max(100.0, demand * 1.25);
  config.service_capacity_rps = capacity;
  config.defense.enabled = true;
  config.defense.bucket = {0.9 * capacity, 0.9 * capacity};
  // Worst-case sojourn below the 4 s client timeout.
  config.defense.queue_capacity =
      static_cast<std::size_t>(capacity * 1.8) + 1;
  config.epoch_s = 1.0;
  config.horizon_s = 120.0;
  FleetDisruption outage;
  outage.dc = 0;
  outage.start_s = 30.0;
  outage.duration_s = 20.0;
  outage.capacity_factor = 0.0;
  outage.drop_sessions = true;
  config.disruptions = {outage};
  config.reroute_fraction = 1.0;
  config.latency_detour_factor = 1.3;
  config.min_latency_floor_s = 1e-3;
  config.sla_goodput_fraction = 0.9;
  config.recovery_window_epochs = 10;
  return config;
}

}  // namespace epm::faults
