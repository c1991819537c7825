#pragma once
// PCIe trace capture: the software view of the paper's LeCroy analyzer.
//
// A `TraceRecord` is one packet passing the tap point, timestamped with the
// simulated time at which it passes. `Trace` provides the filtering and
// delta arithmetic the paper's methodology (§4.2-§4.3) performs on the
// analyzer output, plus a Fig.-6-style pretty printer.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "pcie/dllp.hpp"
#include "pcie/tlp.hpp"

namespace bb::pcie {

struct TraceRecord {
  TimePs t;
  Direction dir = Direction::kDownstream;
  bool is_dllp = false;
  TlpType tlp_type = TlpType::kMemWrite;
  DllpType dllp_type = DllpType::kAck;
  std::uint32_t bytes = 0;
  std::uint64_t tag = 0;
  /// Message identity extracted from the semantic content (0 if none).
  std::uint64_t msg_id = 0;
  /// Which TlpContent alternative the TLP carried (its variant index).
  std::uint8_t content = 0;
  /// The TLP's EP bit (error forwarding).
  bool poisoned = false;

  /// Short classification, e.g. "PIO-MD", "CQE", "Ack"; a poisoned TLP
  /// gets a "!EP" suffix, like an analyzer decoding the EP bit.
  std::string kind() const;
};

class Trace {
 public:
  void record_tlp(TimePs t, const Tlp& tlp);
  void record_dllp(TimePs t, Direction dir, const Dllp& dllp);
  void clear() { records_.clear(); }

  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Records matching a predicate, in time order.
  std::vector<TraceRecord> filter(
      const std::function<bool(const TraceRecord&)>& pred) const;

  /// Downstream data-bearing MWr TLPs of at least `min_bytes` -- the view
  /// Fig. 6 shows after "filtering for downstream transactions".
  std::vector<TraceRecord> downstream_writes(std::uint32_t min_bytes = 1) const;
  /// Upstream MWr TLPs (completions, payload deliveries).
  std::vector<TraceRecord> upstream_writes(std::uint32_t min_bytes = 1) const;

  /// Timestamp deltas between consecutive records (the observed injection
  /// overhead when applied to downstream PIO posts).
  static Samples deltas(const std::vector<TraceRecord>& recs);

  /// For each record in `from`, the first record in `to` with a strictly
  /// later timestamp and, if `match_msg_id`, the same msg_id. Returns the
  /// pairwise time differences (used for MWr->Ack round trips and
  /// ping->completion spans).
  static Samples spans(const std::vector<TraceRecord>& from,
                       const std::vector<TraceRecord>& to,
                       bool match_msg_id = false);

  /// Fig.-6-style listing of `count` records starting at `start`.
  std::string render(std::size_t start = 0, std::size_t count = 16) const;

  /// Full trace as CSV (time_ns, dir, packet, bytes, kind, msg_id) for
  /// external plotting.
  std::string to_csv() const;

  /// FNV-1a over every field of every record, in order, with kind() as
  /// its characters: the fingerprint determinism tests pin.
  std::uint64_t checksum() const;

 private:
  std::vector<TraceRecord> records_;
};

/// The passive analyzer: forwards every packet it sees into a Trace. It
/// never delays traffic (§3: "a passive instrument that allows data to
/// pass through fully unaltered"); capture can be toggled to keep long
/// calibration runs cheap.
class Analyzer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void on_tlp(TimePs t, const Tlp& tlp) {
    if (enabled_) trace_.record_tlp(t, tlp);
  }
  void on_dllp(TimePs t, Direction dir, const Dllp& d) {
    if (enabled_) trace_.record_dllp(t, dir, d);
  }

  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

 private:
  bool enabled_ = true;
  Trace trace_;
};

}  // namespace bb::pcie
