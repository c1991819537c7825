// bbsim: run the paper-reproduction experiments, or any single benchmark
// on any machine preset, from the command line.
//
//   bbsim run <experiment>|all [--smoke] # reproduction experiments; exits
//                                      # non-zero if a band fails
//   bbsim put_bw   [preset] [count]    # UCX injection-rate test
//   bbsim am_lat   [preset] [count]    # UCX ping-pong latency test
//   bbsim osu_mr   [preset] [windows]  # OSU message rate (MPI)
//   bbsim osu_lat  [preset] [count]    # OSU pt2pt latency (MPI)
//   bbsim coll     [preset] [ranks] [bytes] [collective]
//                                      # OSU collective latency (bb::coll)
//   bbsim sweep    <put_bw|am_lat|osu_mr|osu_lat> [count]
//                                      # one benchmark across ALL presets,
//                                      # sharded over the bb::exec pool
//   bbsim list                         # available presets
//   bbsim whatif [<component> <pct>] [--csv]
//                                      # §7 what-if (Fig. 17) on the
//                                      # paper's testbed
//
// Every subcommand accepts `--jobs N` (default: hardware concurrency;
// BB_JOBS overrides). The thread count never changes any printed number
// -- bb::exec sweeps are bit-identical at every value. Counts, ranks and
// bytes are plain positive integers; anything else exits 2.
//
// The model column is Table 1's analytical model, which describes the
// PIO+inline descriptor path only; on any other machine it reads n/a, as
// does put_bw's (Eq. 1) on a machine that does not signal every op.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu.hpp"
#include "benchlib/osu_coll.hpp"
#include "benchlib/put_bw.hpp"
#include "core/models.hpp"
#include "core/whatif.hpp"
#include "exec/sweep.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {

/// Every named machine, keyed (and so listed) by name.
std::map<std::string, scenario::SystemConfig> presets() {
  std::map<std::string, scenario::SystemConfig> reg;
  for (const auto& cfg : scenario::presets::all()) reg.emplace(cfg.name, cfg);
  return reg;
}

/// Prints usage, plus the experiment names with `list`; returns 2.
int usage(const char* argv0, bool list = false) {
  std::fprintf(stderr,
               "usage: %s <put_bw|am_lat|osu_mr|osu_lat|coll|sweep|list> "
               "[preset] [count] [--jobs N]\n"
               "       %s coll [preset] [ranks] [bytes] "
               "[barrier|bcast|allgather|allreduce]\n"
               "       %s sweep <put_bw|am_lat|osu_mr|osu_lat> [count]\n"
               "       %s run <experiment>|all [--jobs N] [--smoke]\n"
               "       %s whatif [<component> <reduction-%%>] [--csv]\n",
               argv0, argv0, argv0, argv0, argv0);
  if (!list) return 2;
  std::fprintf(stderr, "experiments:\n");
  for (const auto& e : bbench::experiments()) {
    std::fprintf(stderr, "  %s\n", e.name);
  }
  return 2;
}

/// Positional argument `i` as a decimal integer in [lo, hi] (digits only),
/// or `absent` if there is none; nullopt, after saying why, if malformed.
std::optional<std::uint64_t> positional(const std::vector<std::string>& pos,
                                        std::size_t i, const char* what,
                                        std::uint64_t lo, std::uint64_t hi,
                                        std::uint64_t absent) {
  if (i >= pos.size()) return absent;
  const char* s = pos[i].c_str();
  const char* end = s + pos[i].size();
  std::uint64_t v = 0;
  const auto r = std::from_chars(s, end, v);
  if (r.ec == std::errc() && r.ptr == end && v >= lo && v <= hi) return v;
  const std::string upper =
      hi == UINT64_MAX ? "" : " and <= " + std::to_string(hi);
  std::fprintf(stderr, "invalid %s '%s' (want an integer >= %llu%s)\n", what,
               s, static_cast<unsigned long long>(lo), upper.c_str());
  return std::nullopt;
}

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

/// `bbsim whatif [<component> <pct>] [--csv]` on the paper's testbed: the
/// four Fig. 17 panels, or one component of the same list reduced by
/// `pct` percent.
int whatif(const char* argv0, const std::vector<std::string>& args) {
  const core::WhatIf w(
      core::ComponentTable::from_config(scenario::presets::thunderx2_cx4()));
  if (args.empty() || (args.size() == 1 && args[0] == "--csv")) {
    const bool csv = !args.empty();
    for (const auto& panel : {w.injection_cpu(), w.latency_cpu(),
                              w.latency_io(), w.latency_network()}) {
      std::printf("%s\n", csv ? panel.to_csv().c_str()
                              : panel.render().c_str());
    }
    return 0;
  }
  if (args.size() != 2) return usage(argv0);
  const std::optional<double> reduction = parse_reduction(args[1]);
  if (!reduction) {
    std::fprintf(stderr,
                 "invalid reduction '%s' (want a number in (0, 100])\n",
                 args[1].c_str());
    return 2;
  }
  const core::WhatIfComponent* c = w.find(args[0]);
  if (!c) {
    std::fprintf(stderr, "unknown component '%s'; one of:", args[0].c_str());
    for (const auto& row : w.components()) {
      std::fprintf(stderr, " %s", row.key.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Headline size: the latency share, or the injection share if the
  // component is not on the latency path.
  std::printf("component %-12s = %.2f ns, reduced by %.0f%%\n", c->key.c_str(),
              c->latency_ns > 0 ? c->latency_ns : c->injection_ns,
              *reduction * 100.0);
  for (const auto m : {core::Metric::kInjection, core::Metric::kLatency}) {
    if (c->ns(m) <= 0) continue;
    const double base = w.base_ns(m);
    std::printf("  %-10s %.2f -> %.2f ns  (%.2f%% faster)\n",
                m == core::Metric::kInjection ? "injection:" : "latency:",
                base, base - *reduction * c->ns(m),
                w.speedup_of(c->key, m, *reduction) * 100.0);
  }
  return 0;
}

bool is_metric(const std::string& m) {
  return m == "put_bw" || m == "am_lat" || m == "osu_mr" || m == "osu_lat";
}

/// One benchmark's observed + modelled value on one preset; no model
/// value where Table 1's equations do not describe the machine.
struct SweepRow {
  double observed;
  std::optional<double> modelled;
};

/// `v` as "%.2f" followed by `unit`, or "n/a".
std::string model_text(std::optional<double> v, const char* unit = "") {
  if (!v) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%s", *v, unit);
  return buf;
}

/// Runs benchmark `metric` on `cfg` (`count` 0 = its default) and, with
/// `report`, prints the single-preset summary.
SweepRow run_metric(const std::string& metric,
                    const scenario::SystemConfig& cfg, std::uint64_t count,
                    bool report) {
  const auto table = core::ComponentTable::from_config(cfg);
  const bool table1_path = cfg.endpoint.use_pio && cfg.endpoint.inline_payload;
  const auto model_if = [&](double v) {
    return table1_path ? std::optional<double>(v) : std::nullopt;
  };
  const auto n = count ? count
                 : metric == "put_bw" ? 10000
                 : metric == "osu_mr" ? 300
                                      : 2000;
  const char* name = cfg.name.c_str();
  scenario::Testbed tb(cfg);
  if (metric == "put_bw") {
    bench::PutBwBenchmark b(tb, {.messages = n, .warmup = n / 10});
    const auto res = b.run();
    const auto s = res.nic_deltas.summarize();
    // Eq. 1 describes the loop that signals every op.
    const auto model =
        cfg.endpoint.signal_period == 1
            ? model_if(core::InjectionModel(table).llp_injection_ns())
            : std::nullopt;
    if (report) {
      std::printf("put_bw on %s: %llu msgs\n", name,
                  static_cast<unsigned long long>(res.messages));
      std::printf("  observed injection overhead: %s\n", s.str().c_str());
      std::printf("  modelled (Eq. 1):            %s\n",
                  model_text(model, " ns").c_str());
      std::printf("  busy posts: %llu\n",
                  static_cast<unsigned long long>(res.busy_posts));
    }
    return {s.mean, model};
  }
  if (metric == "am_lat") {
    bench::AmLatBenchmark b(tb, {.iterations = n, .warmup = n / 10});
    const auto res = b.run();
    const auto model = model_if(core::LatencyModel(table).llp_latency_ns());
    if (report) {
      std::printf("am_lat on %s: %llu iterations\n", name,
                  static_cast<unsigned long long>(res.iterations));
      std::printf("  observed latency (adjusted): %.2f ns\n",
                  res.adjusted_mean_ns);
      std::printf("  modelled LLP latency:        %s\n",
                  model_text(model, " ns").c_str());
    }
    return {res.adjusted_mean_ns, model};
  }
  if (metric == "osu_mr") {
    bench::OsuMessageRate b(tb, {.windows = n, .warmup_windows = n / 10});
    const auto res = b.run();
    const auto model =
        model_if(core::InjectionModel(table).overall_injection_ns());
    if (report) {
      std::printf("osu_mr on %s: %llu msgs\n", name,
                  static_cast<unsigned long long>(res.messages));
      std::printf("  message rate: %.2f M msg/s (%.2f ns/msg)\n",
                  res.message_rate() / 1e6, res.cpu_per_msg_ns);
      std::printf("  modelled (Eq. 2): %s\n",
                  model_text(model, " ns/msg").c_str());
    }
    return {res.cpu_per_msg_ns, model};
  }
  bench::OsuLatency b(tb, {.iterations = n, .warmup = n / 10});
  const auto res = b.run();
  const auto model = model_if(core::LatencyModel(table).e2e_latency_ns());
  if (report) {
    std::printf("osu_lat on %s: %llu iterations\n", name,
                static_cast<unsigned long long>(res.iterations));
    std::printf("  observed latency (adjusted): %.2f ns\n",
                res.adjusted_mean_ns);
    std::printf("  modelled e2e latency:        %s\n",
                model_text(model, " ns").c_str());
  }
  return {res.adjusted_mean_ns, model};
}

}  // namespace

int main(int argc, char** argv) {
  bbench::Args args;
  const std::vector<std::string> pos = bbench::parse_args(argc, argv, args);
  const char* argv0 = pos.empty() ? "bbsim" : pos[0].c_str();
  if (pos.size() < 2) return usage(argv0);
  const std::string& cmd = pos[1];

  if (cmd == "run") {
    if (pos.size() != 3) return usage(argv0, true);
    if (pos[2] == "all") return bbench::run_all(bbench::experiments(), args);
    for (const auto& e : bbench::experiments()) {
      if (pos[2] == e.name) return e.run(args);
    }
    std::fprintf(stderr, "unknown experiment '%s'\n", pos[2].c_str());
    return usage(argv0, true);
  }

  if (cmd == "whatif") return whatif(argv0, {pos.begin() + 2, pos.end()});

  const auto reg = presets();

  if (cmd == "sweep") {
    const std::string metric = pos.size() > 2 ? pos[2] : "am_lat";
    if (!is_metric(metric)) return usage(argv0);
    const auto n =
        positional(pos, 3, "count", metric == "put_bw" ? 2 : 1, UINT64_MAX, 0);
    if (!n) return 2;
    std::vector<std::string> names;
    for (const auto& [name, _] : reg) names.push_back(name);
    const auto res = exec::run_sweep(
        exec::sweep(names),
        [&](const std::string& name, exec::Job&) {
          return run_metric(metric, reg.at(name), *n, false);
        },
        args.exec);
    std::fprintf(stderr, "[exec] %s\n", res.summary().c_str());
    std::printf("%s across %zu presets\n", metric.c_str(), names.size());
    const char* unit = metric == "put_bw" || metric == "osu_mr"
                           ? "ns/msg"
                           : "latency ns";
    std::printf("%-24s %14s %14s\n", "preset", unit, "model");
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::printf("%-24s %14.2f %14s\n", names[i].c_str(),
                  res.values[i].observed,
                  model_text(res.values[i].modelled).c_str());
    }
    return 0;
  }

  if (cmd == "list") {
    for (const auto& [name, _] : reg) std::printf("%s\n", name.c_str());
    return 0;
  }

  const std::string preset = pos.size() > 2 ? pos[2] : "thunderx2-cx4";
  const auto it = reg.find(preset);
  if (it == reg.end()) {
    std::fprintf(stderr, "unknown preset '%s' (try: %s list)\n",
                 preset.c_str(), argv0);
    return 2;
  }
  const auto& cfg = it->second;

  if (is_metric(cmd)) {
    // put_bw measures the delta between consecutive posts: it needs two.
    const auto n =
        positional(pos, 3, "count", cmd == "put_bw" ? 2 : 1, UINT64_MAX, 0);
    if (!n) return 2;
    run_metric(cmd, cfg, *n, true);
    return 0;
  }
  if (cmd != "coll") return usage(argv0);

  // The UCP header stamps the source rank in 6 bits (hlp::UcpWorker),
  // bounding a routed job at 63 ranks.
  const auto ranks_arg = positional(pos, 3, "ranks", 2, 63, 8);
  const auto bytes_arg = positional(pos, 4, "bytes", 8, UINT32_MAX, 1024);
  if (!ranks_arg || !bytes_arg) return 2;
  const int ranks = static_cast<int>(*ranks_arg);
  const auto bytes = static_cast<std::uint32_t>(*bytes_arg);
  const std::string which = pos.size() > 5 ? pos[5] : "allreduce";
  std::optional<bbench::CollKind> kind;
  for (auto k : {bbench::CollKind::kBarrier, bbench::CollKind::kBcast,
                 bbench::CollKind::kAllgather, bbench::CollKind::kAllreduce}) {
    if (which == bbench::kind_name(k)) kind = k;
  }
  if (!kind) return usage(argv0);
  if (bytes % 8 != 0) {
    std::fprintf(stderr, "coll needs bytes a multiple of 8\n");
    return 2;
  }
  double sim_ns = 0.0;
  try {
    sim_ns = bbench::simulate_coll(
        cfg, ranks, *kind, {.iterations = 40, .warmup = 10, .bytes = bytes});
  } catch (const bench::EpochOverrunError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const bench::CollFailedError& e) {
    std::fprintf(stderr, "collective failed: %s\n", e.what());
    return 1;
  }
  const double model_ns =
      bbench::model_coll(model::CollModel(cfg), *kind, ranks, bytes);
  std::printf("%s on %s: %d ranks, %u bytes\n", which.c_str(),
              cfg.name.c_str(), ranks, bytes);
  std::printf("  simulated latency: %.2f ns\n", sim_ns);
  std::printf("  alpha-beta model:  %.2f ns (%+.1f%%)\n", model_ns,
              (model_ns - sim_ns) / sim_ns * 100.0);
  return 0;
}
