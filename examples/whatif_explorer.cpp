// What-if explorer: the §7 analysis as an interactive command-line tool.
//
//   whatif_explorer                      # print all four Fig.-17 panels
//   whatif_explorer <component> <pct>    # one reduction, e.g.:
//   whatif_explorer pio 84
//   whatif_explorer switch 72
//   whatif_explorer io 50
//   whatif_explorer --csv                # panels as CSV (for plotting)
//
// Components: pio, llp_post, llp_prog, hlp_post, hlp_rx_prog,
// hlp_tx_prog, pcie, rc_to_mem, wire, switch, io, hlp, llp.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/whatif.hpp"
#include "scenario/config.hpp"

using namespace bb;

namespace {

struct Component {
  const char* name;
  double ns;
  bool in_injection;
  bool in_latency;
};

/// The reduction as a fraction, if the whole token is a finite number in
/// (0, 100].
std::optional<double> parse_reduction(const std::string& s) {
  double pct = 0.0;
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, pct);
  if (r.ec != std::errc() || r.ptr != end || !std::isfinite(pct) ||
      pct <= 0.0 || pct > 100.0) {
    return std::nullopt;
  }
  return pct / 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t =
      core::ComponentTable::from_config(scenario::presets::thunderx2_cx4());
  const core::WhatIf w(t);
  const core::InjectionModel inj(t);
  const core::LatencyModel lat(t);

  if (argc == 1 || (argc == 2 && std::strcmp(argv[1], "--csv") == 0)) {
    const bool csv = argc == 2;
    for (const auto& panel : {w.injection_cpu(), w.latency_cpu(),
                              w.latency_io(), w.latency_network()}) {
      std::printf("%s\n", csv ? panel.to_csv().c_str()
                              : panel.render().c_str());
    }
    return 0;
  }
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s [<component> <reduction-%%>] [--csv]\n",
                 argv[0]);
    return 2;
  }

  const std::string name = argv[1];
  const std::optional<double> parsed = parse_reduction(argv[2]);
  if (!parsed) {
    std::fprintf(stderr,
                 "invalid reduction '%s' (want a number in (0, 100])\n",
                 argv[2]);
    return 2;
  }
  const double reduction = *parsed;

  const Component components[] = {
      {"pio", t.pio_copy, true, true},
      {"llp_post", t.llp_post(), true, true},
      {"llp_prog", t.llp_prog, true, true},
      {"hlp_post", t.hlp_post(), true, true},
      {"hlp_rx_prog", t.hlp_rx_prog(), false, true},
      {"hlp_tx_prog", t.hlp_tx_prog, true, false},
      {"pcie", 2.0 * t.pcie, false, true},
      {"rc_to_mem", t.rc_to_mem_8b, false, true},
      {"wire", t.wire, false, true},
      {"switch", t.switch_lat, false, true},
      {"io", 2.0 * t.pcie + t.rc_to_mem_8b, false, true},
      {"hlp", t.hlp_post() + t.hlp_rx_prog(), false, true},
      {"llp", t.llp_post() + t.llp_prog, false, true},
  };

  for (const auto& c : components) {
    if (name != c.name) continue;
    std::printf("component %-12s = %.2f ns, reduced by %.0f%%\n", c.name,
                c.ns, reduction * 100.0);
    if (c.in_injection) {
      const double base = inj.overall_injection_ns();
      const double speedup = core::WhatIf::speedup(c.ns, reduction, base);
      std::printf("  injection: %.2f -> %.2f ns  (%.2f%% faster)\n", base,
                  base - reduction * c.ns, speedup * 100.0);
    }
    if (c.in_latency) {
      const double base = lat.e2e_latency_ns();
      const double speedup = core::WhatIf::speedup(c.ns, reduction, base);
      std::printf("  latency:   %.2f -> %.2f ns  (%.2f%% faster)\n", base,
                  base - reduction * c.ns, speedup * 100.0);
    }
    return 0;
  }
  std::fprintf(stderr, "unknown component '%s'\n", name.c_str());
  return 2;
}
