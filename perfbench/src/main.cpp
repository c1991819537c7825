// perfbench: host cost per simulated op, end to end and layer by layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs trials of one workload for `--seconds` of host time (never fewer
// than kMinTrials) and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with tracing off; with
// --trace 1 they are the per-layer ones, from a run whose trials
// alternate between traced and untraced. See perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Distinct seeds every run executes whatever its time budget; the exact
/// (simulated) metrics and the model check are taken over exactly these,
/// so they repeat bit-for-bit across runs with the same --seed.
constexpr int kExactSeeds = 10;
/// Trial 0 runs twice (same input) to check the digest repeats.
constexpr int kMinTrials = kExactSeeds + 1;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The highest percentile with at least ten samples beyond it, capped at
/// the 90th.
double tail_quantile(std::size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.9, 1.0 - 10.0 / static_cast<double>(n));
}

/// Peak resident memory of this process image. VmHWM rather than
/// getrusage: ru_maxrss survives exec, so it would report the launching
/// interpreter's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && (argc % 2) == 1 && a.seconds > 0.0;
}

const FnStats* fn_stats(const Tracer& t, const char* fn) {
  for (const FnStats& s : t.functions()) {
    if (std::strcmp(s.fn, fn) == 0) return &s;
  }
  return nullptr;
}

/// Quantile of one traced function's per-call host (or simulated) time;
/// 0 when the workload never calls it.
double p_of(const Tracer& t, const char* fn, double q, bool sim = false) {
  const FnStats* s = fn_stats(t, fn);
  if (s == nullptr) return 0.0;
  const std::vector<float>& f = sim ? s->sim_samples_ns : s->host_samples_ns;
  return quantile(std::vector<double>(f.begin(), f.end()), q);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const WorkloadInfo* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  Tracer tracer;
  std::vector<std::string> failures;
  // Host times scaled to the reference speed (see reference.hpp), and
  // the raw wall-clock figures, reported beside them.
  std::vector<double> host_per_op, raw_per_op;  // untraced trials
  std::vector<double> traced_host_per_op;       // traced trials
  std::vector<double> setup, raw_setup, build, reference;
  double timed_s = 0.0, raw_timed_s = 0.0, timed_ops = 0.0, timed_events = 0.0;
  double traced_ops = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  Counters exact;
  double exact_ops = 0.0, result_sum = 0.0, result_n = 0.0;
  std::uint64_t pool_chunks = 0;
  std::uint64_t first_digest = 0;

  const std::int64_t t_begin = host_now_ns();
  for (int k = 0;; ++k) {
    const double elapsed = static_cast<double>(host_now_ns() - t_begin) / 1e9;
    if (k >= kMinTrials && elapsed >= args.seconds) break;

    // k = 0 and 1 share seed index 0; then one new seed per trial.
    const int seed_index = k == 0 ? 0 : k - 1;
    const bool traced = args.trace && (k == 1 || (k >= 2 && seed_index % 2 == 1));
    const std::uint64_t trial_seed = bb::derive_seed(args.seed, seed_index);
    const TrialInput in{bb::derive_seed(trial_seed, 1), bb::derive_seed(trial_seed, 2)};

    TrialResult r = w->run(in, traced ? &tracer : nullptr, k);
    const double speed = kReferenceNs / r.reference_ns;
    reference.push_back(r.reference_ns);
    for (const std::string& f : r.check_failures) {
      failures.push_back("trial " + std::to_string(k) + ": " + f);
    }
    if (k == 0) first_digest = r.digest;
    if (k == 1 && r.digest != first_digest) {
      failures.push_back(traced ? "traced and untraced trials of one seed "
                                  "differ in simulated digest"
                                : "two trials of one seed differ in "
                                  "simulated digest");
    }
    attempted += r.attempted;
    failed += r.failed;
    setup.push_back(r.setup_s * speed);
    raw_setup.push_back(r.setup_s);
    build.push_back(r.build_s);
    const double per_op = r.timed_s * 1e9 / static_cast<double>(r.timed_ops);
    if (traced) {
      traced_host_per_op.push_back(per_op * speed);
      traced_ops += static_cast<double>(r.attempted);
    } else {
      host_per_op.push_back(per_op * speed);
      raw_per_op.push_back(per_op);
      timed_s += r.timed_s * speed;
      raw_timed_s += r.timed_s;
      timed_ops += static_cast<double>(r.timed_ops);
      timed_events += static_cast<double>(r.timed.events);
    }
    if (k != 1 && seed_index < kExactSeeds) {
      exact.add(r.timed);
      exact_ops += static_cast<double>(r.timed_ops);
      result_sum += r.result_sum_ns;
      result_n += static_cast<double>(r.result_n);
      pool_chunks = std::max(pool_chunks, r.event_pool_chunks);
    }
  }

  // The simulated headline against the analytical model.
  const double result_ns = ratio(result_sum, result_n);
  const ModelCheck mc = w->check_model(result_ns);
  std::printf("workload %s seed %llu: %s = %.2f sim ns; model check %s: %s\n",
              w->name, static_cast<unsigned long long>(args.seed), w->result_what,
              result_ns, mc.ok ? "ok" : "FAILED", mc.detail.c_str());
  if (!mc.ok) failures.push_back("sim.result_ns fails the model check");
  if (attempted == 0) failures.push_back("no op attempted");

  const double q_tail = tail_quantile(host_per_op.size());
  std::printf("trials: %zu untraced, %zu traced; host_ns_per_op_p90 is the "
              "p%.0f of %zu samples\n",
              host_per_op.size(), traced_host_per_op.size(), q_tail * 100.0,
              host_per_op.size());
  std::printf("raw wall-clock: host_ns_per_op p50 %.1f p%.0f %.1f, ops_per_host_s "
              "%.1f, setup_s %.6f; reference loop p50 %.0f ns (nominal %.0f)\n",
              quantile(raw_per_op, 0.5), q_tail * 100.0, quantile(raw_per_op, q_tail),
              ratio(timed_ops, raw_timed_s), quantile(raw_setup, 0.5),
              quantile(reference, 0.5), kReferenceNs);
  std::printf("ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  std::vector<Metric> m;
  if (!args.trace) {
    m = {
        {"host_ns_per_op_p50", quantile(host_per_op, 0.5), "ns"},
        {"host_ns_per_op_p90", quantile(host_per_op, q_tail), "ns"},
        {"ops_per_host_s", ratio(timed_ops, timed_s), "1/s"},
        {"setup_s", quantile(setup, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"completed_frac",
         1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "frac"},
    };
  } else {
    const Counters& c = exact;
    const double ops = exact_ops;
    const double kops = ops / 1e3;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const FnStats* wait = fn_stats(tracer, "MpiComm::wait");
    const double overhead =
        quantile(traced_host_per_op, 0.5) - quantile(host_per_op, 0.5);
    m = {
        {"sim.events_per_op", ratio(d(c.events), ops), "count"},
        {"sim.host_ns_per_event", ratio(raw_timed_s * 1e9, timed_events), "ns"},
        {"sim.event_pool_chunks", d(pool_chunks), "count"},
        {"sim.result_ns", result_ns, "sim_ns"},
        {"scenario.build_host_ms", quantile(build, 0.5) * 1e3, "ms"},
        {"cpu.busy_ns_per_op", ratio(d(c.cpu_busy_ps) / 1e3, ops), "sim_ns"},
        {"cpu.busy_frac", ratio(d(c.cpu_busy_ps), d(c.sim_ps) * w->nodes), "frac"},
        {"llp.post_calls_per_op", ratio(d(c.post_calls), ops), "count"},
        {"llp.busy_post_frac", ratio(d(c.busy_posts), d(c.post_calls)), "frac"},
        {"llp.progress_calls_per_op", ratio(d(c.progress_calls), ops), "count"},
        {"llp.empty_progress_frac", ratio(d(c.empty_progress), d(c.progress_calls)), "frac"},
        {"llp.post_host_ns_p50", p_of(tracer, "Endpoint::put_short", 0.5), "ns"},
        {"llp.progress_host_ns_p50", p_of(tracer, "Worker::progress", 0.5), "ns"},
        {"llp.cqes_per_op", ratio(d(c.cqes_polled), ops), "count"},
        {"llp.error_completions", d(c.error_completions), "count"},
        {"hlp.isend_host_ns_p50", p_of(tracer, "MpiComm::isend", 0.5), "ns"},
        {"hlp.wait_host_ns_p50", p_of(tracer, "MpiComm::wait", 0.5), "ns"},
        {"hlp.wait_host_ns_p90", p_of(tracer, "MpiComm::wait", 0.9), "ns"},
        {"hlp.wait_sim_ns_p50", p_of(tracer, "MpiComm::wait", 0.5, true), "sim_ns"},
        {"hlp.host_ns_per_wait_sim_us",
         wait == nullptr ? 0.0 : ratio(wait->host_ns, wait->sim_ns / 1e3), "ns"},
        {"hlp.waits_per_op", ratio(d(c.wait_calls), ops), "count"},
        {"coll.allreduce_host_us_p50", p_of(tracer, "coll::allreduce", 0.5) / 1e3, "us"},
        {"coll.barrier_host_us_p50", p_of(tracer, "coll::barrier", 0.5) / 1e3, "us"},
        {"coll.allreduce_sim_ns_p50", p_of(tracer, "coll::allreduce", 0.5, true), "sim_ns"},
        {"coll.isends_per_op", ratio(d(c.coll_isends), ops), "count"},
        {"coll.waits_per_op", ratio(d(c.coll_waits), ops), "count"},
        {"pcie.tlps_per_op", ratio(d(c.tlps), ops), "count"},
        {"pcie.analyzer_records_per_op", ratio(d(c.analyzer_records), ops), "count"},
        {"pcie.replays_per_kop", ratio(d(c.replays), kops), "count"},
        {"nic.cqes_written_per_op", ratio(d(c.cqes_written), ops), "count"},
        {"nic.dma_reads_per_op", ratio(d(c.dma_reads), ops), "count"},
        {"nic.credit_stalls_per_op", ratio(d(c.credit_stalls), ops), "count"},
        {"nic.error_cqes", d(c.error_cqes), "count"},
        {"net.packets_per_op", ratio(d(c.packets_sent), ops), "count"},
        {"net.acks_per_op", ratio(d(c.acks_sent), ops), "count"},
        {"net.retransmit_frac", ratio(d(c.retransmits), d(c.data_packets_sent)), "frac"},
        {"net.goodput_frac", ratio(ops, d(c.data_packets_sent)), "frac"},
        {"net.naks_per_kop", ratio(d(c.naks_sent), kops), "count"},
        {"net.retry_timer_firings_per_kop", ratio(d(c.retry_timer_firings), kops), "count"},
        {"net.drop_frac", ratio(d(c.packets_dropped), d(c.packets_sent)), "frac"},
        {"fault.injected_per_kop", ratio(d(c.faults_injected), kops), "count"},
        {"fault.recovered_per_kop", ratio(d(c.faults_recovered), kops), "count"},
        {"fault.poisoned_tlps", d(c.poisoned_tlps), "count"},
        {"trace.overhead_ns_per_op", overhead, "ns"},
        {"trace.spans_per_op", ratio(d(tracer.spans()), traced_ops), "count"},
    };
    for (Layer l : {Layer::kDriver, Layer::kCpu, Layer::kLlp, Layer::kHlp, Layer::kColl}) {
      m.push_back({std::string(layer_name(l)) + ".excl_host_ns_per_op",
                   ratio(tracer.layer_exclusive_ns(l), traced_ops), "ns"});
    }

    // The trace writer: Chrome trace-event JSON plus the self-time table.
    const std::string stem = ".bench_out/" + args.workload + "_seed" +
                             std::to_string(args.seed);
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string table = tracer.self_time_table(traced_ops);
    std::printf("\nper-layer host time of the traced trials, per op. self = span "
                "minus child spans (an upper bound on multi-process workloads, "
                "where lanes overlap); excl = exclusive share of the host "
                "timeline:\n%s",
                table.c_str());
    std::printf("sim.host_ns_per_event (untraced) = %.1f ns\n",
                ratio(raw_timed_s * 1e9, timed_events));
    std::printf("tracing overhead: traced p50 %.1f - untraced p50 %.1f = %.1f host ns/op\n",
                quantile(traced_host_per_op, 0.5), quantile(host_per_op, 0.5),
                overhead);
    if (!tracer.write_chrome_json(stem + ".trace.json")) {
      failures.push_back("could not write " + stem + ".trace.json");
    } else {
      std::printf("chrome trace: %s.trace.json (%llu spans, first %zu kept)\n",
                  stem.c_str(), static_cast<unsigned long long>(tracer.spans()),
                  std::min<std::size_t>(tracer.spans(), Tracer::kMaxKeptSpans));
    }
    if (std::FILE* f = std::fopen((stem + ".selftime.txt").c_str(), "w")) {
      std::fputs(table.c_str(), f);
      std::fclose(f);
    }
  }

  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m[i].name.c_str(), v, m[i].unit);
  }
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}
