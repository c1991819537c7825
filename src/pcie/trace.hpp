#pragma once
// PCIe trace capture: the software view of the paper's LeCroy analyzer.
//
// A `TraceRecord` is one packet passing the tap point, timestamped with the
// simulated time at which it passes. `Trace` provides the filtering and
// delta arithmetic the paper's methodology (§4.2-§4.3) performs on the
// analyzer output, plus a Fig.-6-style pretty printer.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "pcie/dllp.hpp"
#include "pcie/tlp.hpp"

namespace bb::pcie {

// 32 bytes: the analyzer keeps one per packet of a whole run, so the
// enum and flag fields are bit-fields (every value of each fits).
struct TraceRecord {
  TimePs t;
  std::uint64_t tag = 0;
  /// Message identity extracted from the semantic content (0 if none).
  std::uint64_t msg_id = 0;
  std::uint32_t bytes = 0;
  Direction dir : 1 = Direction::kDownstream;
  bool is_dllp : 1 = false;
  /// The TLP's EP bit (error forwarding).
  bool poisoned : 1 = false;
  TlpType tlp_type : 2 = TlpType::kMemWrite;
  DllpType dllp_type : 2 = DllpType::kAck;
  /// Which TlpContent alternative the TLP carried (its variant index).
  std::uint8_t content = 0;

  /// Short classification, e.g. "PIO-MD", "CQE", "Ack"; a poisoned TLP
  /// gets a "!EP" suffix, like an analyzer decoding the EP bit.
  std::string kind() const;
};
static_assert(sizeof(TraceRecord) == 32);

/// A capture, stored in fixed chunks of `kChunkRecords` records. A chunk
/// never moves once allocated, so a long capture grows without copying
/// what it holds; `clear()` keeps the chunks for the next capture.
class Trace {
 public:
  /// 64 KiB per chunk: below glibc's mmap threshold, so chunks come from
  /// the heap instead of fresh mappings.
  static constexpr std::size_t kChunkRecords = 64 * 1024 / sizeof(TraceRecord);

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceRecord*;
    using reference = const TraceRecord&;

    const_iterator() = default;
    reference operator*() const { return (*trace_)[i_]; }
    pointer operator->() const { return &(*trace_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class Trace;
    const_iterator(const Trace* trace, std::size_t i) : trace_(trace), i_(i) {}
    const Trace* trace_ = nullptr;
    std::size_t i_ = 0;
  };

  void record_tlp(TimePs t, const Tlp& tlp);
  void record_dllp(TimePs t, Direction dir, const Dllp& dllp);
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  /// The `i`-th record in capture order.
  const TraceRecord& operator[](std::size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

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
  /// later timestamp that no earlier `from` record took. Returns the
  /// pairwise time differences (used for MWr->Ack round trips and
  /// ping->completion spans).
  static Samples spans(const std::vector<TraceRecord>& from,
                       const std::vector<TraceRecord>& to);

  /// Fig.-6-style listing of `count` records starting at `start`.
  std::string render(std::size_t start = 0, std::size_t count = 16) const;

  /// Full trace as CSV (time_ns, dir, packet, bytes, kind, msg_id) for
  /// external plotting.
  std::string to_csv() const;

  /// FNV-1a over every field of every record, in order, with kind() as
  /// its characters: the fingerprint determinism tests pin.
  std::uint64_t checksum() const;

 private:
  void push(const TraceRecord& r);

  std::vector<std::unique_ptr<TraceRecord[]>> chunks_;
  std::size_t size_ = 0;
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
