// Service-boundary error taxonomy: one enum for every way a call into the
// serving tier can conclude, in-process or over a socket.
//
// The first four values are the per-answer verdicts (query.hpp's Status is
// an alias of this enum; an answered query is a *successful* call — its
// Answer carries the per-query verdict); the rest name the call-level
// failures that used to surface as bare ModelError throws (poisoned backend,
// malformed request) plus the transport failures the networked tier
// introduces.  The numeric values ARE the wire
// error codes (net/wire.hpp frames a kError reply as one code byte plus a
// message), so a remote caller and an in-process caller observe the same
// documented failure, and the README's ServiceStatus <-> wire-code table is
// definitionally in sync with this header.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace mpcmst::service {

enum class ServiceStatus : std::uint8_t {
  // Per-answer verdicts (Answer::status, UpdateReport::status).
  kOk = 0,
  kUnknownEdge = 1,      // {u, v} resolves to no edge
  kNotApplicable = 2,    // e.g. replacement_edge of a non-tree edge
  kWouldDisconnect = 3,  // refused tree-edge delete (bridge)

  // Call-level failures.
  kPoisoned = 4,        // fail-stop backend: a commit failed after mutation
  kInvalidRequest = 5,  // malformed/unserviceable request (bad op, bad shard)
  kWireError = 6,       // framing/CRC/socket fault on the transport
  kTimeout = 7,         // the peer did not answer within the deadline
  kVersionMismatch = 8,  // peer speaks a different wire protocol version
  kEpochRetry = 9,       // cross-shard merge could not pin one epoch
  kNotLeader = 10,       // mutation sent to a read replica / static server
  kUnavailable = 11,     // no backend behind this endpoint (not bootstrapped)
};

/// Stable label for logs, the REPL and the wire-code table in the README.
const char* to_string(ServiceStatus s);

/// A service-boundary failure with a machine-readable status.  Derives from
/// ModelError so every existing `catch (ModelError&)` / EXPECT_THROW site
/// keeps working; new code can switch on status() instead of parsing text.
class ServiceError : public ModelError {
 public:
  ServiceError(ServiceStatus status, const std::string& what)
      : ModelError(what), status_(status) {}

  ServiceStatus status() const { return status_; }

 private:
  ServiceStatus status_;
};

}  // namespace mpcmst::service
