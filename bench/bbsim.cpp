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
//
// Every subcommand accepts `--jobs N` (default: hardware concurrency;
// BB_JOBS overrides). The thread count never changes any printed number
// -- bb::exec sweeps are bit-identical at every value. Counts, ranks and
// bytes are plain positive integers; anything else exits 2.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu.hpp"
#include "benchlib/osu_coll.hpp"
#include "benchlib/put_bw.hpp"
#include "core/models.hpp"
#include "exec/sweep.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {

std::map<std::string, std::function<scenario::SystemConfig()>> presets() {
  using namespace scenario::presets;
  return {
      {"thunderx2-cx4", [] { return thunderx2_cx4(); }},
      {"deterministic", [] { return deterministic(); }},
      {"integrated-nic", [] { return integrated_nic(0.5); }},
      {"fast-device-memory", [] { return fast_device_memory(); }},
      {"genz-switch", [] { return genz_switch(); }},
      {"pam4-fec-wire", [] { return pam4_fec_wire(); }},
      {"tofu-d-like", [] { return tofu_d_like(); }},
      {"doorbell-dma", [] { return doorbell_dma_path(); }},
      {"unsignaled-completions", [] { return unsignaled_completions(); }},
  };
}

/// Prints usage, plus the experiment names with `list`; returns 2.
int usage(const char* argv0, bool list = false) {
  std::fprintf(stderr,
               "usage: %s <put_bw|am_lat|osu_mr|osu_lat|coll|sweep|list> "
               "[preset] [count] [--jobs N]\n"
               "       %s coll [preset] [ranks] [bytes] "
               "[barrier|bcast|allgather|allreduce]\n"
               "       %s sweep <put_bw|am_lat|osu_mr|osu_lat> [count]\n"
               "       %s run <experiment>|all [--jobs N] [--smoke]\n",
               argv0, argv0, argv0, argv0);
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

bool is_metric(const std::string& m) {
  return m == "put_bw" || m == "am_lat" || m == "osu_mr" || m == "osu_lat";
}

/// One benchmark's observed + modelled value on one preset.
struct SweepRow {
  double observed;
  double modelled;
};

/// Runs benchmark `metric` on `cfg` (`count` 0 = its default) and, with
/// `report`, prints the single-preset summary.
SweepRow run_metric(const std::string& metric,
                    const scenario::SystemConfig& cfg, std::uint64_t count,
                    bool report) {
  const auto table = core::ComponentTable::from_config(cfg);
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
    const double model = core::InjectionModel(table).llp_injection_ns();
    if (report) {
      std::printf("put_bw on %s: %llu msgs\n", name,
                  static_cast<unsigned long long>(res.messages));
      std::printf("  observed injection overhead: %s\n", s.str().c_str());
      std::printf("  modelled (Eq. 1):            %.2f ns\n", model);
      std::printf("  busy posts: %llu\n",
                  static_cast<unsigned long long>(res.busy_posts));
    }
    return {s.mean, model};
  }
  if (metric == "am_lat") {
    bench::AmLatBenchmark b(tb, {.iterations = n, .warmup = n / 10});
    const auto res = b.run();
    const double model = core::LatencyModel(table).llp_latency_ns();
    if (report) {
      std::printf("am_lat on %s: %llu iterations\n", name,
                  static_cast<unsigned long long>(res.iterations));
      std::printf("  observed latency (adjusted): %.2f ns\n",
                  res.adjusted_mean_ns);
      std::printf("  modelled LLP latency:        %.2f ns\n", model);
    }
    return {res.adjusted_mean_ns, model};
  }
  if (metric == "osu_mr") {
    bench::OsuMessageRate b(tb, {.windows = n, .warmup_windows = n / 10});
    const auto res = b.run();
    const double model = core::InjectionModel(table).overall_injection_ns();
    if (report) {
      std::printf("osu_mr on %s: %llu msgs\n", name,
                  static_cast<unsigned long long>(res.messages));
      std::printf("  message rate: %.2f M msg/s (%.2f ns/msg)\n",
                  res.message_rate() / 1e6, res.cpu_per_msg_ns);
      std::printf("  modelled (Eq. 2): %.2f ns/msg\n", model);
    }
    return {res.cpu_per_msg_ns, model};
  }
  bench::OsuLatency b(tb, {.iterations = n, .warmup = n / 10});
  const auto res = b.run();
  const double model = core::LatencyModel(table).e2e_latency_ns();
  if (report) {
    std::printf("osu_lat on %s: %llu iterations\n", name,
                static_cast<unsigned long long>(res.iterations));
    std::printf("  observed latency (adjusted): %.2f ns\n",
                res.adjusted_mean_ns);
    std::printf("  modelled e2e latency:        %.2f ns\n", model);
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
          return run_metric(metric, reg.at(name)(), *n, false);
        },
        args.exec);
    std::fprintf(stderr, "[exec] %s\n", res.summary().c_str());
    std::printf("%s across %zu presets\n", metric.c_str(), names.size());
    const char* unit = metric == "put_bw" || metric == "osu_mr"
                           ? "ns/msg"
                           : "latency ns";
    std::printf("%-24s %14s %14s\n", "preset", unit, "model");
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::printf("%-24s %14.2f %14.2f\n", names[i].c_str(),
                  res.values[i].observed, res.values[i].modelled);
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
  const auto cfg = it->second();

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
  // bounding a demultiplexed job at 63 ranks.
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
  const double sim_ns = bbench::simulate_coll(
      cfg, ranks, *kind, {.iterations = 40, .warmup = 10, .bytes = bytes});
  const double model_ns =
      bbench::model_coll(model::CollModel(cfg), *kind, ranks, bytes);
  std::printf("%s on %s: %d ranks, %u bytes\n", which.c_str(),
              cfg.name.c_str(), ranks, bytes);
  std::printf("  simulated latency: %.2f ns\n", sim_ns);
  std::printf("  alpha-beta model:  %.2f ns (%+.1f%%)\n", model_ns,
              (model_ns - sim_ns) / sim_ns * 100.0);
  return 0;
}
