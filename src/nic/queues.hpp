#pragma once
// Host-memory structures of the HW/SW interface (§2): completion-queue
// rings written by the NIC through the Root Complex and polled by CPU
// loads, plus the host-side descriptor ring the NIC DMA-reads on the
// non-PIO path.
//
// Visibility semantics: the RC commits each DMA write at an absolute
// simulated time; a CPU poll at core-local time `now` observes an entry
// only if `visible_at <= now`. This is what makes LLP_prog's read of the
// designated memory location behave like the real machine.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ring.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "pcie/root_complex.hpp"
#include "pcie/tlp.hpp"

namespace bb::nic {

/// One completion-queue entry as visible to the CPU.
struct Cqe {
  std::uint64_t msg_id = 0;
  /// Number of operations this entry retires (unsignalled moderation).
  std::uint32_t completes = 1;
  /// Immediate data carried by the message (RX completions only).
  std::uint64_t user_data = 0;
  /// Payload size delivered (RX completions only).
  std::uint32_t bytes = 0;
  TimePs visible_at;
  /// kIoError marks a completion-with-error (§fault model): the retired
  /// operation(s) failed after the link exhausted its recovery budget.
  /// (Last so pre-fault aggregate initializers stay valid.)
  common::Status status = common::Status::kOk;
  /// The QP whose send this entry completes (TX completions only): one
  /// TX CQ serves all of a worker's QPs, as a UCT iface's send CQ does.
  std::uint32_t qp = 0;
};

/// A CQ ring in host memory.
class CqRing {
 public:
  void push(const Cqe& e) {
    entries_.push(e);
    ++total_pushed_;
  }

  /// Dequeues the oldest entry visible at `now`, if any.
  std::optional<Cqe> poll(TimePs now);
  /// Entries currently visible at `now` (without dequeuing).
  std::size_t visible_count(TimePs now) const;
  /// Entries present regardless of visibility.
  std::size_t depth() const { return entries_.size(); }
  std::uint64_t total_pushed() const { return total_pushed_; }

 private:
  common::Ring<Cqe> entries_;
  std::uint64_t total_pushed_ = 0;
};

/// The host-memory image of one node: the RX CQ ring, the binding of
/// each QP to the TX CQ its worker polls, the staged-descriptor ring for
/// the DMA descriptor path, and payload-delivery accounting. Serves as the
/// RC's memory sink and DMA-read provider.
class HostMemory {
 public:
  CqRing& rx_cq() { return rx_cq_; }
  /// Routes `qp`'s send completions into `cq` (a worker's TX CQ, which
  /// must outlive every later commit). A QP is bound at most once.
  void bind_tx_cq(std::uint32_t qp, CqRing& cq);

  /// Node-wide unique message ids (several workers/cores on one node
  /// share the NIC, whose in-flight tracking is keyed by msg_id).
  std::uint64_t alloc_msg_id() { return next_msg_id_++; }

  /// Invoked after every committed DMA write (at its visibility time) --
  /// the hook interrupt-driven completion (§2) hangs off.
  void set_commit_hook(std::function<void()> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Driver stages a descriptor in the host ring before ringing the
  /// DoorBell (non-PIO path, §2 step 0).
  void stage_descriptor(const pcie::WireMd& md) {
    if (md.qp >= staged_.size()) staged_.resize(md.qp + 1);
    staged_[md.qp].push(md);
  }
  std::size_t staged_count(std::uint32_t qp) const;
  /// Removes and returns the oldest staged descriptor on `qp` (fault
  /// recovery: a dead DoorBell/descriptor-fetch must not leave the ring
  /// out of sync with the NIC).
  std::optional<pcie::WireMd> take_staged(std::uint32_t qp);

  /// RC memory-sink entry point: a DMA write became visible.
  void commit_write(const pcie::Tlp& tlp, TimePs visible_at);
  /// RC read-provider entry point: a NIC DMA read is being served.
  pcie::ReadCompletion serve_read(const pcie::ReadRequest& req);

  std::uint64_t payload_bytes_delivered() const {
    return payload_bytes_delivered_;
  }
  std::uint64_t payload_writes() const { return payload_writes_; }

 private:
  CqRing rx_cq_;
  // Indexed by QP id, as staged_ is (Testbed hands QPs out densely from
  // 1; template endpoints use 0): the TX CQ each QP is bound to, or null.
  std::vector<CqRing*> tx_cq_of_;
  // One descriptor ring per QP.
  std::vector<common::Ring<pcie::WireMd>> staged_;
  std::uint64_t next_msg_id_ = 1;
  std::function<void()> commit_hook_;
  std::uint64_t payload_bytes_delivered_ = 0;
  std::uint64_t payload_writes_ = 0;
};

}  // namespace bb::nic
