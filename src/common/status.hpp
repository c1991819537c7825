#pragma once
// Unified status/result conventions for the public llp/hlp surfaces.
//
// The transport layers used to mix bools and layer-local enums for their
// return values; every public operation now reports one of the codes
// below. `kNoResource` is the transient busy-post EAGAIN of §4.2 --
// progress the worker and retry. `kIoError` is terminal: the operation
// was retired by a completion-with-error after the link exhausted its
// replay budget (see docs/FAULTS.md).

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace bb::common {

enum class Status : std::uint8_t {
  kOk = 0,
  /// Transient resource exhaustion ("busy post"): the transmit queue is
  /// full; progress the worker before retrying.
  kNoResource,
  /// A software-side queue hit its capacity bound.
  kQueueFull,
  /// The operation completed with an unrecoverable error (error CQE after
  /// exhausted link-level recovery, or the WQE that exhausted the RC
  /// transport's retry budget).
  kIoError,
  /// The WQE was flushed: its QP entered the error state (or was reset)
  /// before the operation could complete. The op itself never failed --
  /// repost after recovering the QP (docs/TRANSPORT.md).
  kFlushed,
  /// A bounded wait elapsed before the operation completed (e.g. the
  /// coll progress-engine timeout): diagnosable instead of a hang.
  kTimedOut,
};

inline std::string to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "OK";
    case Status::kNoResource:
      return "NO_RESOURCE";
    case Status::kQueueFull:
      return "QUEUE_FULL";
    case Status::kIoError:
      return "IO_ERROR";
    case Status::kFlushed:
      return "FLUSHED";
    case Status::kTimedOut:
      return "TIMED_OUT";
  }
  BB_UNREACHABLE("bad Status");
}

/// A value-or-status result (the subset of std::expected the transport
/// surfaces need). T must be default-constructible.
template <typename T>
class Expected {
 public:
  /// Default: an error placeholder (kIoError). Exists so Expected can sit
  /// in coroutine promises and containers before a real result lands; a
  /// placeholder observed as success would be a bug, so it is never OK.
  Expected() : status_(Status::kIoError) {}
  /* implicit */ Expected(T value)
      : status_(Status::kOk), value_(std::move(value)) {}
  /* implicit */ Expected(Status s) : status_(s) {
    BB_ASSERT_MSG(s != Status::kOk, "Expected error requires non-OK status");
  }

  bool ok() const { return status_ == Status::kOk; }
  explicit operator bool() const { return ok(); }
  Status status() const { return status_; }

  T& value() {
    BB_ASSERT_MSG(ok(), "Expected::value() on error result");
    return value_;
  }
  const T& value() const {
    BB_ASSERT_MSG(ok(), "Expected::value() on error result");
    return value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T operator->() const
    requires std::is_pointer_v<T>
  {
    BB_ASSERT_MSG(ok(), "Expected::operator-> on error result");
    return value_;
  }

  /// The value, or `fallback` on error.
  T value_or(T fallback) const { return ok() ? value_ : std::move(fallback); }

 private:
  Status status_;
  T value_{};
};

}  // namespace bb::common
