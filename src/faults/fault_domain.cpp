#include "faults/fault_domain.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "core/require.h"
#include "core/rng.h"
#include "faults/script_text.h"

namespace epm::faults {
namespace {

constexpr std::size_t kDomainLevelCount = 4;
const char* kLevelTokens[kDomainLevelCount] = {"feed", "region", "dc",
                                               "cluster"};

constexpr const char* kNoun = "grid event";

constexpr std::size_t kGridEventKindCount = 5;
const char* kKindTokens[kGridEventKindCount] = {"outage", "brownout",
                                                "price-spike",
                                                "demand-response", "ctl-kill"};

/// "a, b, or c" over a token table, for diagnostics.
std::string token_list(const char* const* tokens, std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += i + 1 < count ? ", " : ", or ";
    out += tokens[i];
  }
  return out;
}

void validate_event(const DomainFault& event) {
  if (!(event.start_s >= 0.0) || !std::isfinite(event.start_s)) {
    throw std::invalid_argument("DomainFault start_s must be finite and >= 0");
  }
  if (!(event.duration_s > 0.0) || !std::isfinite(event.duration_s)) {
    throw std::invalid_argument("DomainFault duration_s must be > 0");
  }
  if (!(event.severity > 0.0) || !std::isfinite(event.severity)) {
    throw std::invalid_argument("DomainFault severity must be > 0");
  }
  if (event.kind == GridEventKind::kBrownout && event.severity > 1.0) {
    throw std::invalid_argument(
        "DomainFault brownout severity is a capacity-loss fraction in (0, 1]");
  }
  if (trim(event.target).empty()) {
    throw std::invalid_argument("DomainFault target name must be non-empty");
  }
}

/// Uniform [0, 1) draw keyed by (seed, event, dc, which): counter-mode
/// SplitMix64, so every (event, dc) pair owns an independent stream and
/// adding events or datacenters never perturbs the others.
double stagger_u(std::uint64_t seed, std::size_t event, std::size_t dc,
                 std::uint64_t which) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  fold(seed);
  fold(static_cast<std::uint64_t>(event));
  fold(static_cast<std::uint64_t>(dc));
  fold(which);
  return static_cast<double>(SplitMix64::mix(h) >> 11) * 0x1.0p-53;
}

}  // namespace

std::string to_string(DomainLevel level) {
  const auto index = static_cast<std::size_t>(level);
  if (index >= kDomainLevelCount) {
    throw std::invalid_argument("unknown DomainLevel");
  }
  return kLevelTokens[index];
}

DomainLevel domain_level_from_string(const std::string& token) {
  for (std::size_t i = 0; i < kDomainLevelCount; ++i) {
    if (token == kLevelTokens[i]) {
      return static_cast<DomainLevel>(i);
    }
  }
  throw std::invalid_argument(
      "unknown fault-domain level token: '" + token +
      "' (expected " + token_list(kLevelTokens, kDomainLevelCount) + ")");
}

std::string to_string(GridEventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= kGridEventKindCount) {
    throw std::invalid_argument("unknown GridEventKind");
  }
  return kKindTokens[index];
}

GridEventKind grid_event_from_string(const std::string& token) {
  for (std::size_t i = 0; i < kGridEventKindCount; ++i) {
    if (token == kKindTokens[i]) {
      return static_cast<GridEventKind>(i);
    }
  }
  throw std::invalid_argument(
      "unknown grid event token: '" + token + "' (expected " +
      token_list(kKindTokens, kGridEventKindCount) + ")");
}

void FaultDomainTree::check_fresh(DomainLevel level,
                                  const std::string& name) const {
  require(!trim(name).empty(), "FaultDomainTree: node name must be non-empty");
  if (has(level, name)) {
    throw std::invalid_argument("FaultDomainTree: duplicate " +
                                faults::to_string(level) + " name '" + name +
                                "'");
  }
}

std::size_t FaultDomainTree::add_grid_feed(std::string name) {
  check_fresh(DomainLevel::kGridFeed, name);
  feeds_.push_back(std::move(name));
  return feeds_.size() - 1;
}

std::size_t FaultDomainTree::add_region(std::string name,
                                        const std::string& grid_feed) {
  check_fresh(DomainLevel::kRegion, name);
  const std::size_t feed = resolve(DomainLevel::kGridFeed, grid_feed);
  regions_.push_back(Region{std::move(name), feed});
  return regions_.size() - 1;
}

std::size_t FaultDomainTree::add_datacenter(std::string name,
                                            const std::string& region) {
  check_fresh(DomainLevel::kDatacenter, name);
  const std::size_t r = resolve(DomainLevel::kRegion, region);
  datacenters_.push_back(Datacenter{std::move(name), r});
  return datacenters_.size() - 1;
}

std::size_t FaultDomainTree::add_cluster(std::string name,
                                         const std::string& datacenter) {
  check_fresh(DomainLevel::kCluster, name);
  const std::size_t dc = resolve(DomainLevel::kDatacenter, datacenter);
  clusters_.push_back(Cluster{std::move(name), dc});
  return clusters_.size() - 1;
}

std::size_t FaultDomainTree::region_of(std::size_t dc) const {
  require(dc < datacenters_.size(),
          "FaultDomainTree: datacenter index out of range");
  return datacenters_[dc].region;
}

std::size_t FaultDomainTree::feed_of(std::size_t dc) const {
  return regions_[region_of(dc)].feed;
}

bool FaultDomainTree::has(DomainLevel level, const std::string& name) const {
  switch (level) {
    case DomainLevel::kGridFeed:
      for (const auto& f : feeds_) {
        if (f == name) return true;
      }
      return false;
    case DomainLevel::kRegion:
      for (const auto& r : regions_) {
        if (r.name == name) return true;
      }
      return false;
    case DomainLevel::kDatacenter:
      for (const auto& d : datacenters_) {
        if (d.name == name) return true;
      }
      return false;
    case DomainLevel::kCluster:
      for (const auto& c : clusters_) {
        if (c.name == name) return true;
      }
      return false;
  }
  return false;
}

std::size_t FaultDomainTree::resolve(DomainLevel level,
                                     const std::string& name) const {
  const auto fail = [&](auto begin, auto end, auto name_of) -> std::size_t {
    std::string known;
    for (auto it = begin; it != end; ++it) {
      if (!known.empty()) known += ", ";
      known += name_of(*it);
    }
    if (known.empty()) known = "<none>";
    // One line: the operator pastes it straight into the plan they mistyped.
    throw std::invalid_argument("unknown " + faults::to_string(level) + " '" +
                                name + "' (known: " + known + ")");
  };
  switch (level) {
    case DomainLevel::kGridFeed: {
      for (std::size_t i = 0; i < feeds_.size(); ++i) {
        if (feeds_[i] == name) return i;
      }
      return fail(feeds_.begin(), feeds_.end(),
                  [](const std::string& f) { return f; });
    }
    case DomainLevel::kRegion: {
      for (std::size_t i = 0; i < regions_.size(); ++i) {
        if (regions_[i].name == name) return i;
      }
      return fail(regions_.begin(), regions_.end(),
                  [](const Region& r) { return r.name; });
    }
    case DomainLevel::kDatacenter: {
      for (std::size_t i = 0; i < datacenters_.size(); ++i) {
        if (datacenters_[i].name == name) return i;
      }
      return fail(datacenters_.begin(), datacenters_.end(),
                  [](const Datacenter& d) { return d.name; });
    }
    case DomainLevel::kCluster: {
      for (std::size_t i = 0; i < clusters_.size(); ++i) {
        if (clusters_[i].name == name) return i;
      }
      return fail(clusters_.begin(), clusters_.end(),
                  [](const Cluster& c) { return c.name; });
    }
  }
  throw std::invalid_argument("unknown DomainLevel");
}

std::vector<std::size_t> FaultDomainTree::datacenters_under(
    DomainLevel level, const std::string& name) const {
  const std::size_t index = resolve(level, name);
  std::vector<std::size_t> out;
  switch (level) {
    case DomainLevel::kGridFeed:
      for (std::size_t dc = 0; dc < datacenters_.size(); ++dc) {
        if (regions_[datacenters_[dc].region].feed == index) out.push_back(dc);
      }
      break;
    case DomainLevel::kRegion:
      for (std::size_t dc = 0; dc < datacenters_.size(); ++dc) {
        if (datacenters_[dc].region == index) out.push_back(dc);
      }
      break;
    case DomainLevel::kDatacenter:
      out.push_back(index);
      break;
    case DomainLevel::kCluster:
      out.push_back(clusters_[index].datacenter);
      break;
  }
  return out;
}

DomainFaultPlan DomainFaultPlan::scripted(std::vector<DomainFault> events) {
  for (const auto& event : events) {
    validate_event(event);
  }
  std::sort(events.begin(), events.end(),
            [](const DomainFault& a, const DomainFault& b) {
              return std::make_tuple(a.start_s, static_cast<int>(a.kind),
                                     static_cast<int>(a.level), a.target,
                                     a.duration_s) <
                     std::make_tuple(b.start_s, static_cast<int>(b.kind),
                                     static_cast<int>(b.level), b.target,
                                     b.duration_s);
            });
  DomainFaultPlan plan;
  plan.events_ = std::move(events);
  return plan;
}

DomainFaultPlan DomainFaultPlan::parse(const std::string& spec) {
  std::vector<DomainFault> events;
  for (const std::string& entry : script_entries(spec)) {
    const std::string head = script_head(entry, kNoun);
    const auto colon = head.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "grid event missing ':level/name' target: '" + entry + "'");
    }
    DomainFault event;
    event.kind = grid_event_from_string(trim(head.substr(0, colon)));
    std::string target = trim(head.substr(colon + 1));
    const auto slash = target.find('/');
    if (slash == std::string::npos) {
      throw std::invalid_argument(
          "grid event target must be 'level/name': '" + entry + "'");
    }
    event.level = domain_level_from_string(trim(target.substr(0, slash)));
    // Cluster names themselves contain '/', so only the first one splits.
    event.target = trim(target.substr(slash + 1));
    if (event.target.empty()) {
      throw std::invalid_argument("grid event has empty target name: '" +
                                  entry + "'");
    }
    const ScriptTiming timing = script_timing(entry, kNoun);
    event.start_s = timing.start_s;
    event.duration_s = timing.duration_s;
    event.severity = timing.severity;
    events.push_back(std::move(event));
  }
  return scripted(std::move(events));
}

std::string DomainFaultPlan::to_string() const {
  std::string out;
  for (const auto& event : events_) {
    if (!out.empty()) out += ';';
    out += faults::to_string(event.kind);
    out += ':' + faults::to_string(event.level) + '/' + event.target;
    out += format_script_timing(event.start_s, event.duration_s,
                                event.severity);
  }
  return out;
}

std::vector<ExpandedDcFault> expand_to_datacenters(
    const FaultDomainTree& tree, const DomainFaultPlan& plan,
    const DomainExpansionConfig& config) {
  require(config.onset_stagger_s >= 0.0 &&
              std::isfinite(config.onset_stagger_s),
          "DomainExpansionConfig: onset stagger must be finite and >= 0");
  require(config.clear_stagger_s >= 0.0 &&
              std::isfinite(config.clear_stagger_s),
          "DomainExpansionConfig: clear stagger must be finite and >= 0");
  std::vector<ExpandedDcFault> out;
  for (std::size_t e = 0; e < plan.events().size(); ++e) {
    const DomainFault& event = plan.events()[e];
    const std::vector<std::size_t> dcs =
        tree.datacenters_under(event.level, event.target);
    for (const std::size_t dc : dcs) {
      ExpandedDcFault x;
      x.dc = dc;
      x.kind = event.kind;
      x.severity = event.severity;
      x.source_event = e;
      x.onset_s = event.start_s +
                  config.onset_stagger_s * stagger_u(config.seed, e, dc, 0);
      x.clear_s = event.end_s() +
                  config.clear_stagger_s * stagger_u(config.seed, e, dc, 1);
      out.push_back(std::move(x));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ExpandedDcFault& a, const ExpandedDcFault& b) {
              return std::make_tuple(a.onset_s, a.dc, a.source_event) <
                     std::make_tuple(b.onset_s, b.dc, b.source_event);
            });
  return out;
}

FaultDomainTree make_reference_fault_domains(
    const std::vector<std::string>& dc_names) {
  struct Known {
    const char* dc;
    const char* region;
  };
  static constexpr Known kKnown[] = {
      {"pnw", "americas"},      {"virginia", "americas"},
      {"saopaulo", "americas"}, {"ireland", "emea"},
      {"singapore", "apac"},    {"tokyo", "apac"},
  };
  FaultDomainTree tree;
  tree.add_grid_feed("grid-na");
  tree.add_grid_feed("grid-eu");
  tree.add_grid_feed("grid-apac");
  tree.add_region("americas", "grid-na");
  tree.add_region("emea", "grid-eu");
  tree.add_region("apac", "grid-apac");
  for (const std::string& name : dc_names) {
    const char* region = nullptr;
    for (const Known& k : kKnown) {
      if (name == k.dc) {
        region = k.region;
        break;
      }
    }
    std::string region_name;
    if (region != nullptr) {
      region_name = region;
    } else {
      // A fleet we don't recognize still gets a valid tree: a private
      // single-DC region on a private feed.
      tree.add_grid_feed("grid-" + name);
      region_name = name + "-region";
      tree.add_region(region_name, "grid-" + name);
    }
    tree.add_datacenter(name, region_name);
    tree.add_cluster(name + "/interactive", name);
    tree.add_cluster(name + "/batch", name);
  }
  return tree;
}

}  // namespace epm::faults
