#pragma once
// Common types of the low-level communication protocol (LLP), a UCT-like
// transport interface (§4).

#include "common/status.hpp"

namespace bb::llp {

/// LLP operations report the unified transport status codes: kNoResource
/// is the busy post of §4.2 (TxQ full -- progress the worker and retry);
/// kIoError surfaces a completion-with-error generated by the NIC after
/// exhausted link-level recovery.
using Status = common::Status;

}  // namespace bb::llp
