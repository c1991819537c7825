#pragma once
// The §7 what-if engine: "if we optimize component X by Y%, what is the
// corresponding reduction in injection overhead and latency?"
//
// The models' components are not concurrent (their executions do not
// overlap), so the speedup of reducing component c by fraction r in a
// pipeline of total T is exactly  r * c / T  -- the linear curves of
// Fig. 17. One ordered component list holds each component's share of
// both totals; the four panels (CPU->injection, CPU->latency,
// I/O->latency, network->latency), the paper's spot checks and
// `bbsim whatif` all read it, so they cannot disagree.

#include <string>
#include <string_view>
#include <vector>

#include "core/component_table.hpp"
#include "core/models.hpp"

namespace bb::core {

struct WhatIfCurve {
  std::string component;
  double component_ns = 0;           // time attributed to the component
  std::vector<double> reductions;    // e.g. {0.1, 0.3, 0.5, 0.7, 0.9}
  std::vector<double> speedups;      // fraction of the base total saved
};

struct WhatIfPanel {
  std::string title;
  double base_total_ns = 0;
  std::vector<WhatIfCurve> curves;

  std::string render() const;
  std::string to_csv() const;
};

/// The metric a component is reduced against.
enum class Metric { kInjection, kLatency };

/// One row of the §7 component list.
struct WhatIfComponent {
  std::string key;    ///< command-line name, e.g. "llp_prog"
  std::string label;  ///< Fig. 17 row label, e.g. "LLP_prog"
  /// ns in the overall injection overhead (Eq. 2); 0 if absent.
  double injection_ns = 0;
  /// ns in the end-to-end latency; 0 if absent.
  double latency_ns = 0;
  /// Bit i set: the row is plotted in Fig. 17(a+i).
  unsigned panels = 0;

  double ns(Metric m) const {
    return m == Metric::kInjection ? injection_ns : latency_ns;
  }
};

class WhatIf {
 public:
  explicit WhatIf(ComponentTable t);

  /// Speedup (fractional reduction of the base metric) from reducing a
  /// component of size `component_ns` by `reduction`.
  static double speedup(double component_ns, double reduction,
                        double base_ns) {
    return reduction * component_ns / base_ns;
  }

  static const std::vector<double>& standard_grid();

  /// Every component, in the order the Fig. 17 panels plot them.
  const std::vector<WhatIfComponent>& components() const { return rows_; }
  /// The row named `key`, or nullptr.
  const WhatIfComponent* find(std::string_view key) const;
  /// Base total of `m`: Eq. 2's overall injection or the e2e latency.
  double base_ns(Metric m) const {
    return m == Metric::kInjection ? inj_base_ : lat_base_;
  }
  /// Speedup of `m` from reducing component `key` (which must exist) by
  /// `reduction`.
  double speedup_of(std::string_view key, Metric m, double reduction) const;

  /// Fig. 17a: CPU components vs overall injection.
  WhatIfPanel injection_cpu() const { return panel(0); }
  /// Fig. 17b: CPU components vs end-to-end latency.
  WhatIfPanel latency_cpu() const { return panel(1); }
  /// Fig. 17c: I/O components vs end-to-end latency ("Integrated NIC" is
  /// the whole I/O subsystem).
  WhatIfPanel latency_io() const { return panel(2); }
  /// Fig. 17d: network components vs end-to-end latency.
  WhatIfPanel latency_network() const { return panel(3); }

  // --- §7 spot checks -----------------------------------------------------
  /// PIO copy projected to `target_ns` (default 15): speedups of overall
  /// injection and of e2e latency.
  double pio_injection_speedup(double target_ns = 15.0) const {
    return speedup_of("pio", Metric::kInjection, 1.0 - target_ns / t_.pio_copy);
  }
  double pio_latency_speedup(double target_ns = 15.0) const {
    return speedup_of("pio", Metric::kLatency, 1.0 - target_ns / t_.pio_copy);
  }
  /// A `reduction` of all HLP (resp. LLP) components: injection speedup.
  double hlp_injection_speedup(double reduction) const {
    return speedup_of("hlp", Metric::kInjection, reduction);
  }
  double llp_injection_speedup(double reduction) const {
    return speedup_of("llp", Metric::kInjection, reduction);
  }
  /// I/O reduced by `reduction` (integrated NIC): latency speedup.
  double integrated_nic_latency_speedup(double reduction) const {
    return speedup_of("io", Metric::kLatency, reduction);
  }
  /// Switch reduced to `target_ns` (Gen-Z forecast): latency speedup.
  double switch_latency_speedup(double target_ns = 30.0) const {
    return speedup_of("switch", Metric::kLatency,
                      1.0 - target_ns / t_.switch_lat);
  }

 private:
  /// Fig. 17(a+i): the rows with bit i set, in list order.
  WhatIfPanel panel(unsigned i) const;

  ComponentTable t_;
  double inj_base_;
  double lat_base_;
  std::vector<WhatIfComponent> rows_;
};

}  // namespace bb::core
