// Ablation: fault injection & recovery (docs/FAULTS.md). Sweeps a BER-style
// fault rate across the PCIe links of both nodes and reports its cost on
// the paper's two primary microbenchmarks: am_lat latency (§4.3) and the
// put_bw message-rate loop (§4.2). Three properties are validated:
//
//  1. rate -> 0 reproduces the error-free numbers bit-for-bit (event
//     count, final simulated time, analyzer-trace checksum);
//  2. conservation: every injected fault is matched by a recovery action,
//     replay buffers drain to empty, and each link delivers exactly the
//     TLPs it accepted (no silent loss, no duplicates, no hangs);
//  3. the terminal path: a TLP that can never pass its link is forwarded
//     poisoned and retired with a completion-with-error at the endpoint.
//
// A second sweep repeats the exercise one layer up: wire-level packet
// loss on the interconnect fabric, recovered by the NIC's RC transport
// (PSN/ACK/NAK/retry-timer go-back-N, docs/TRANSPORT.md) instead of the
// PCIe data-link replay. The same three properties hold there: loss -> 0
// bit-identity, packet conservation (sent + duplicated == delivered +
// dropped + corrupted, all send queues drained), and bounded recovery.
//
// `--smoke` shrinks every iteration count for CI; `--jobs N` shards the
// sweeps without changing any printed number.

#include <cstdint>
#include <cstdio>
#include <tuple>

#include "benchlib/am_lat.hpp"
#include "benchlib/put_bw.hpp"
#include "exec/sweep.hpp"
#include "fault/fault.hpp"
#include "pcie/trace.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {

// The sweep perturbs every modelled fault class, not just TLP corruption:
// drops exercise the replay timer, Ack losses the duplicate filter, and
// UpdateFC losses the credit re-emission path.
fault::FaultConfig storm(double ber) {
  fault::FaultConfig f;
  f.tlp_corrupt_prob = ber;
  f.tlp_drop_prob = ber / 2.0;
  f.ack_drop_prob = ber / 2.0;
  f.updatefc_drop_prob = ber / 2.0;
  return f;
}

// Iteration counts, shrunk by --smoke so CI can afford the experiment.
struct Scale {
  std::uint64_t am_iters = 300;
  std::uint64_t am_warmup = 30;
  std::uint64_t put_msgs = 2000;
  std::uint64_t put_warmup = 200;
};
constexpr Scale kSmoke{.am_iters = 60, .am_warmup = 10, .put_msgs = 400,
                       .put_warmup = 40};

struct SweepRow {
  double ber = 0.0;
  double lat_ns = 0.0;
  double rate_mps = 0.0;
  fault::FaultStats fs;
  bool conserved = true;
};

// Conservation at quiescence: replay buffers empty and exactly-once,
// in-order delivery on both links.
bool conserved(scenario::Testbed& tb) {
  bool ok = true;
  for (int n = 0; n < 2; ++n) {
    ok = ok && tb.node(n).link.replay_buffer_depth() == 0;
    ok = ok && tb.node(n).link.tlps_delivered() == tb.node(n).link.tlps_accepted();
  }
  return ok;
}

// Runs am_lat, then put_bw, each on a fresh testbed of `cfg`; after each
// run `audit(tb, row)` folds the run's counters into `row` and returns
// whether conservation held.
template <typename Row, typename Audit>
Row run_pair(Row row, const scenario::SystemConfig& cfg, const Scale& scale,
             Audit audit) {
  {
    scenario::Testbed tb(cfg);
    bench::AmLatBenchmark b(tb, {.iterations = scale.am_iters,
                                 .warmup = scale.am_warmup,
                                 .capture_trace = false});
    row.lat_ns = b.run().adjusted_mean_ns;
    row.conserved = audit(tb, row);
  }
  {
    scenario::Testbed tb(cfg);
    bench::PutBwBenchmark b(tb, {.messages = scale.put_msgs,
                                 .warmup = scale.put_warmup,
                                 .capture_trace = false});
    row.rate_mps = b.run().message_rate() / 1e6;
    row.conserved = audit(tb, row) && row.conserved;
  }
  return row;
}

SweepRow run_at(double ber, const Scale& scale) {
  SweepRow row;
  row.ber = ber;
  return run_pair(row,
                  scenario::presets::thunderx2_cx4().with(
                      scenario::overlays::faults(storm(ber))),
                  scale, [](scenario::Testbed& tb, SweepRow& r) {
                    r.fs.merge(tb.fault_stats());
                    return conserved(tb);
                  });
}

// -- wire-loss sweep (RC transport layer) ----------------------------------

struct WireRow {
  double loss = 0.0;
  double lat_ns = 0.0;
  double rate_mps = 0.0;
  net::TransportStats ts;
  bool conserved = true;
};

// Conservation at quiescence, one layer above `conserved()`: every packet
// put on the wire is accounted for by exactly one fate, and no NIC holds
// an unacknowledged message (all send queues drained).
bool wire_conserved(scenario::Testbed& tb) {
  const net::TransportStats s = tb.net_stats();
  bool ok = s.packets_sent + s.packets_duplicated ==
            s.packets_delivered + s.packets_dropped + s.packets_corrupted;
  for (int n = 0; n < 2; ++n) {
    ok = ok && tb.node(n).nic.tx_unacked() == 0;
  }
  return ok;
}

WireRow wire_run_at(double loss, const Scale& scale) {
  WireRow row;
  row.loss = loss;
  return run_pair(row,
                  scenario::presets::thunderx2_cx4().with(
                      scenario::overlays::wire_loss(loss)),
                  scale, [](scenario::Testbed& tb, WireRow& r) {
                    r.ts.merge(tb.net_stats());
                    return wire_conserved(tb);
                  });
}

std::tuple<std::uint64_t, std::int64_t, std::uint64_t> fingerprint(
    const scenario::SystemConfig& cfg) {
  scenario::Testbed tb(cfg);
  bench::AmLatBenchmark b(
      tb, {.iterations = 200, .warmup = 20, .capture_trace = true});
  (void)b.run();
  return {tb.sim().events_processed(), tb.sim().now().ps(),
          tb.analyzer().trace().checksum()};
}

}  // namespace

int bbench::ablation_faults(const Args& args) {
  bbench::header("bench_ablation_faults -- fault-rate sweep & recovery audit",
                 "fault/recovery extension (docs/FAULTS.md; beyond the paper)");
  bbench::Validator v;
  const auto& opts = args.exec;
  const Scale scale = args.smoke ? kSmoke : Scale{};

  // -- 1. rate -> 0 is bit-identical to the error-free baseline ----------
  const auto fp = exec::run_sweep(
      exec::sweep<bool>({false, true}),
      [](bool zero_rate, exec::Job&) {
        auto cfg = scenario::presets::thunderx2_cx4();
        return fingerprint(zero_rate ? cfg.with(scenario::overlays::faults(0.0))
                                     : cfg);
      },
      opts);
  bbench::note_exec("fingerprint pair", fp);
  const auto& base = fp.values[0];
  const auto& zero = fp.values[1];
  std::printf("rate->0 fingerprint: events %llu / %llu, trace %016llx / %016llx\n\n",
              static_cast<unsigned long long>(std::get<0>(base)),
              static_cast<unsigned long long>(std::get<0>(zero)),
              static_cast<unsigned long long>(std::get<2>(base)),
              static_cast<unsigned long long>(std::get<2>(zero)));
  v.is_true("fault-rate->0 reproduces the error-free run bit-for-bit",
            base == zero);

  // -- 2. BER sweep: latency + message rate vs fault rate ----------------
  std::printf("%-10s %12s %12s %10s %9s %9s %9s %9s\n", "ber", "am_lat ns",
              "put_bw M/s", "injected", "replays", "fc-reem", "dup-drop",
              "poisoned");
  const auto rows = exec::run_sweep(
      exec::sweep<double>({0.0, 1e-4, 1e-3, 1e-2}),
      [&](double ber, exec::Job&) { return run_at(ber, scale); }, opts);
  bbench::note_exec("ber sweep", rows);
  SweepRow at0, at_max;
  for (const SweepRow& r : rows.values) {
    const double ber = r.ber;
    std::printf("%-10.0e %12.2f %12.2f %10llu %9llu %9llu %9llu %9llu\n",
                r.ber, r.lat_ns, r.rate_mps,
                static_cast<unsigned long long>(r.fs.injected()),
                static_cast<unsigned long long>(r.fs.replays),
                static_cast<unsigned long long>(r.fs.fc_reemissions),
                static_cast<unsigned long long>(r.fs.duplicates_dropped),
                static_cast<unsigned long long>(r.fs.poisoned_tlps));
    if (ber == 0.0) at0 = r;
    if (ber == 1e-2) at_max = r;

    char tag[32];
    std::snprintf(tag, sizeof(tag), "ber %.0e", ber);
    v.is_true(std::string(tag) + ": replay buffers drained, links delivered "
                                 "exactly what they accepted",
              r.conserved);
    if (ber == 0.0) {
      v.is_true("ber 0: nothing injected", r.fs.injected() == 0);
    } else {
      // At --smoke scale the low rates may legitimately inject nothing;
      // whatever was injected must have been recovered.
      v.is_true(std::string(tag) + ": every injected fault recovered",
                r.fs.injected() == 0 || r.fs.recovered() > 0);
      // Lost UpdateFCs are each re-emitted exactly once (cumulative
      // counters make the re-emission idempotent, never compounding).
      v.is_true(std::string(tag) + ": every lost UpdateFC re-emitted",
                r.fs.fc_reemissions == r.fs.updatefc_dropped);
    }
  }
  v.is_true("ber 1e-2: the storm actually injected faults",
            at_max.fs.injected() > 0);
  v.is_true("faults cost latency (am_lat at ber 1e-2 slower than error-free)",
            at_max.lat_ns > at0.lat_ns);

  // -- 3. terminal path: exhausted replay budget -> error CQE ------------
  {
    fault::FaultConfig f;
    f.max_replays = 1;
    f.scheduled.push_back(
        {fault::OneShot::Kind::kKillTlp, fault::LinkDir::kDownstream, 1});
    scenario::Testbed tb(scenario::presets::thunderx2_cx4().with(f));
    llp::Endpoint& ep = tb.add_endpoint(0);
    auto driver = [](scenario::Testbed& t,
                     llp::Endpoint& e) -> sim::Task<void> {
      (void)co_await e.am_short(8);
      while (e.tx_errors() == 0 && t.sim().now().to_ns() < 1e6) {
        (void)co_await t.node(0).worker.progress();
      }
    };
    tb.sim().spawn(driver(tb, ep), "error-cqe-driver");
    tb.sim().run();
    std::printf("\n%s\n", tb.fault_report().c_str());
    const fault::FaultStats fs = tb.fault_stats();
    v.is_true("killed TLP forwarded poisoned and retired as an error CQE",
              ep.tx_errors() == 1 && fs.poisoned_tlps == 1 &&
                  fs.error_cqes == 1 && fs.poisoned_delivered == 0);
    v.is_true("no op left hanging after the error", ep.outstanding() == 0);
  }

  // -- 4. wire-loss sweep: the RC transport over a lossy fabric ----------
  std::printf("\n%-10s %12s %12s %9s %9s %9s %9s %9s\n", "wire-loss",
              "am_lat ns", "put_bw M/s", "dropped", "retrans", "naks",
              "timer", "qp-err");
  const auto wrows = exec::run_sweep(
      exec::sweep<double>({0.0, 1e-4, 1e-3, 1e-2}),
      [&](double loss, exec::Job&) { return wire_run_at(loss, scale); }, opts);
  bbench::note_exec("wire-loss sweep", wrows);
  WireRow w0, w_max;
  for (const WireRow& r : wrows.values) {
    std::printf("%-10.0e %12.2f %12.2f %9llu %9llu %9llu %9llu %9llu\n",
                r.loss, r.lat_ns, r.rate_mps,
                static_cast<unsigned long long>(r.ts.packets_dropped),
                static_cast<unsigned long long>(r.ts.retransmits),
                static_cast<unsigned long long>(r.ts.naks_sent),
                static_cast<unsigned long long>(r.ts.retry_timer_firings),
                static_cast<unsigned long long>(r.ts.qp_errors));
    if (r.loss == 0.0) w0 = r;
    if (r.loss == 1e-2) w_max = r;

    char tag[32];
    std::snprintf(tag, sizeof(tag), "wire-loss %.0e", r.loss);
    v.is_true(std::string(tag) + ": packet conservation (sent + dup == "
                                 "delivered + dropped + corrupted) and all "
                                 "send queues drained",
              r.conserved);
    v.is_true(std::string(tag) + ": retry budget never exhausted",
              r.ts.qp_errors == 0);
    if (r.loss == 0.0) {
      v.is_true("wire-loss 0: nothing dropped, nothing retransmitted",
                r.ts.packets_dropped == 0 && r.ts.retransmits == 0);
    }
  }
  v.is_true("wire loss actually bites at 1e-2 (drops and retransmissions)",
            w_max.ts.packets_dropped > 0 && w_max.ts.retransmits > 0);
  v.is_true("wire loss costs latency (am_lat at 1e-2 slower than lossless)",
            w_max.lat_ns > w0.lat_ns);

  // Wire-loss -> 0 bit-identity: the RC bookkeeping (PSNs, unacked
  // queues, coalesced-ACK state) must be pure state -- zero extra events.
  const auto wfp = exec::run_sweep(
      exec::sweep<bool>({false, true}),
      [](bool zero_rate, exec::Job&) {
        auto cfg = scenario::presets::thunderx2_cx4();
        return fingerprint(
            zero_rate ? cfg.with(scenario::overlays::wire_loss(0.0)) : cfg);
      },
      opts);
  bbench::note_exec("wire fingerprint pair", wfp);
  v.is_true("wire-loss->0 reproduces the error-free run bit-for-bit",
            wfp.values[0] == wfp.values[1]);

  return v.finish();
}
