#pragma once
// Communication requests of the high-level protocol layers.

#include <cstdint>
#include <vector>

#include "common/status.hpp"

namespace bb::hlp {

struct Request {
  enum class Kind : std::uint8_t { kSend, kRecv };

  Kind kind = Kind::kSend;
  std::uint32_t bytes = 0;
  bool complete = false;
  /// Final disposition: kOk, or kIoError when the operation was retired
  /// by a completion-with-error after exhausted link-level recovery.
  common::Status status = common::Status::kOk;
  /// Send only: posted to the transport but waiting in the UCP pending
  /// queue after a busy post (§6: "UCP schedules the successful execution
  /// of LLP_post for busy posts during the progress of operations").
  bool pending = false;
  /// Identity for debugging/tests.
  std::uint64_t seq = 0;
};

inline bool all_complete(const std::vector<Request*>& reqs) {
  for (const Request* r : reqs) {
    if (!r->complete) return false;
  }
  return true;
}

/// The first non-OK status in window order, or kOk.
inline common::Status first_error(const std::vector<Request*>& reqs) {
  for (const Request* r : reqs) {
    if (r->status != common::Status::kOk) return r->status;
  }
  return common::Status::kOk;
}

}  // namespace bb::hlp
