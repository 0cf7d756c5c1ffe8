// Extension experiment (paper §3.2): how do different tiers scale when user
// demand increases or decreases?
//
// A three-tier service (web -> app -> storage) with per-tier fan-out and
// service demands is sized across a demand sweep, jointly over fleet sizes,
// P-states, and the split of the end-to-end latency budget. Shows that the
// tiers scale non-proportionally and that optimizing the budget split beats
// splitting the SLA equally.
#include <iostream>

#include "core/table.h"
#include "macro/tiers.h"

using namespace epm;

int main() {
  std::cout << banner(
      "Extension (sec. 3.2): tier scaling under a 60 ms end-to-end SLA");
  std::cout << "  web (1x fan-out, 2 ms), app (2x, 5 ms), storage (4x, 1 ms); "
               "joint fleet x P-state x budget split.\n\n";

  const auto spec = macro::make_reference_tiered_service(0.06);

  Table table({"external rps", "web n@P", "app n@P", "db n@P", "budget split (ms)",
               "end-to-end (ms)", "power (kW)", "equal-split power", "saved"});
  for (double rate : {250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0}) {
    const auto opt = macro::size_tiers(spec, rate);
    const auto equal = macro::size_tiers_equal_split(spec, rate);
    if (!opt.feasible) continue;
    auto np = [&](std::size_t i) {
      return std::to_string(opt.tiers[i].servers) + "@P" +
             std::to_string(opt.tiers[i].pstate);
    };
    const std::string split = fmt(opt.tiers[0].latency_budget_s * 1e3, 0) + "/" +
                              fmt(opt.tiers[1].latency_budget_s * 1e3, 0) + "/" +
                              fmt(opt.tiers[2].latency_budget_s * 1e3, 0);
    table.add_row(
        {fmt(rate, 0), np(0), np(1), np(2), split,
         fmt(opt.end_to_end_response_s * 1e3, 1), fmt(opt.total_power_w / 1e3, 2),
         equal.feasible ? fmt(equal.total_power_w / 1e3, 2) : "infeasible",
         equal.feasible
             ? fmt_percent(1.0 - opt.total_power_w / equal.total_power_w, 1)
             : "-"});
  }
  std::cout << table.render();

  // Scaling ratios: servers per 1000 external rps at low vs high demand.
  const auto low = macro::size_tiers(spec, 500.0);
  const auto high = macro::size_tiers(spec, 8000.0);
  if (low.feasible && high.feasible) {
    Table ratios({"tier", "servers @500 rps", "servers @8000 rps",
                  "scale factor (demand x16)"});
    const char* names[] = {"web", "app", "db"};
    for (std::size_t i = 0; i < 3; ++i) {
      ratios.add_row({names[i], std::to_string(low.tiers[i].servers),
                      std::to_string(high.tiers[i].servers),
                      fmt(static_cast<double>(high.tiers[i].servers) /
                              static_cast<double>(low.tiers[i].servers),
                          1) + "x"});
    }
    std::cout << "\n" << ratios.render();
  }

  std::cout << "\n  Paper: macro management must know 'how do different tiers "
               "scale when user demands increase or\n"
               "  decrease'. Measured: tiers scale at different rates (small "
               "fleets carry fixed queueing overheads), the\n"
               "  optimizer hands most of the latency budget to the heavy app "
               "tier, and budget-split optimization beats\n"
               "  the equal split most at low demand where P-state choices "
               "differ across tiers.\n";
  return 0;
}
