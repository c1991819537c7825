#include "core/whatif.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace bb::core {

std::string WhatIfPanel::render() const {
  std::string out = title + "  (base " + TextTable::num(base_total_ns) +
                    " ns; cell = % speedup)\n";
  std::vector<std::string> header = {"Component", "ns"};
  if (!curves.empty()) {
    for (double r : curves[0].reductions) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "-%.0f%%", r * 100.0);
      header.push_back(buf);
    }
  }
  TextTable table(header);
  for (const auto& c : curves) {
    std::vector<std::string> row = {c.component, TextTable::num(c.component_ns)};
    for (double s : c.speedups) row.push_back(TextTable::pct(s));
    table.add_row(std::move(row));
  }
  return out + table.render();
}

std::string WhatIfPanel::to_csv() const {
  std::string out = "component,component_ns";
  if (!curves.empty()) {
    for (double r : curves[0].reductions) {
      out += ',';
      out += TextTable::num(r, 2);
    }
  }
  out += '\n';
  for (const auto& c : curves) {
    out += c.component;
    out += ',';
    out += TextTable::num(c.component_ns);
    for (double s : c.speedups) {
      out += ',';
      out += TextTable::num(s * 100.0, 3);
    }
    out += '\n';
  }
  return out;
}

WhatIf::WhatIf(ComponentTable t) : t_(t) {
  inj_base_ = InjectionModel(t_).overall_injection_ns();
  lat_base_ = LatencyModel(t_).e2e_latency_ns();
  constexpr unsigned a = 1, b = 2, c = 4, d = 8;  // Fig. 17a-d
  // HLP and LLP progress split by direction: the sender's share enters
  // Eq. 2, the receiver's the latency. LLP_prog enters Eq. 2 only as its
  // per-op share LLP_tx_prog = LLP_prog / c, plotted under that name.
  rows_ = {
      {"hlp", "HLP", t_.hlp_post() + t_.hlp_tx_prog,
       t_.hlp_post() + t_.hlp_rx_prog(), a | b},
      {"llp", "LLP", t_.llp_post() + t_.llp_tx_prog(),
       t_.llp_post() + t_.llp_prog, a | b},
      {"hlp_rx_prog", "HLP_rx_prog", 0, t_.hlp_rx_prog(), b},
      {"llp_post", "LLP_post", t_.llp_post(), t_.llp_post(), a | b},
      {"pio", "PIO", t_.pio_copy, t_.pio_copy, a | b},
      {"hlp_tx_prog", "HLP_tx_prog", t_.hlp_tx_prog, 0, a},
      {"hlp_post", "HLP_post", t_.hlp_post(), t_.hlp_post(), a | b},
      {"llp_tx_prog", "LLP_tx_prog", t_.llp_tx_prog(), 0, a},
      {"llp_prog", "LLP_prog", t_.llp_tx_prog(), t_.llp_prog, b},
      {"io", "Integrated NIC", 0, 2.0 * t_.pcie + t_.rc_to_mem_8b, c},
      {"pcie", "PCIe", 0, 2.0 * t_.pcie, c},
      {"rc_to_mem", "RC-to-MEM", 0, t_.rc_to_mem_8b, c},
      {"wire", "Wire", 0, t_.wire, d},
      {"switch", "Switch", 0, t_.switch_lat, d},
  };
}

const std::vector<double>& WhatIf::standard_grid() {
  static const std::vector<double> grid = {0.1, 0.3, 0.5, 0.7, 0.9};
  return grid;
}

const WhatIfComponent* WhatIf::find(std::string_view key) const {
  for (const auto& r : rows_) {
    if (r.key == key) return &r;
  }
  return nullptr;
}

double WhatIf::speedup_of(std::string_view key, Metric m,
                          double reduction) const {
  const WhatIfComponent* r = find(key);
  BB_ASSERT_MSG(r != nullptr, "unknown what-if component");
  return speedup(r->ns(m), reduction, base_ns(m));
}

WhatIfPanel WhatIf::panel(unsigned i) const {
  static const char* const kTitles[] = {
      "Fig 17a: injection speedup vs CPU-component reduction",
      "Fig 17b: latency speedup vs CPU-component reduction",
      "Fig 17c: latency speedup vs I/O-component reduction",
      "Fig 17d: latency speedup vs network-component reduction",
  };
  const Metric m = i == 0 ? Metric::kInjection : Metric::kLatency;
  WhatIfPanel p;
  p.title = kTitles[i];
  p.base_total_ns = base_ns(m);
  for (const auto& r : rows_) {
    if (!(r.panels & (1u << i))) continue;
    WhatIfCurve& c = p.curves.emplace_back();
    c.component = r.label;
    c.component_ns = r.ns(m);
    c.reductions = standard_grid();
    for (double red : c.reductions) {
      c.speedups.push_back(speedup(c.component_ns, red, p.base_total_ns));
    }
  }
  return p;
}

}  // namespace bb::core
