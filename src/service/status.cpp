#include "service/status.hpp"

namespace mpcmst::service {

const char* to_string(ServiceStatus s) {
  switch (s) {
    case ServiceStatus::kOk:
      return "ok";
    case ServiceStatus::kUnknownEdge:
      return "unknown_edge";
    case ServiceStatus::kNotApplicable:
      return "not_applicable";
    case ServiceStatus::kWouldDisconnect:
      return "would_disconnect";
    case ServiceStatus::kPoisoned:
      return "poisoned";
    case ServiceStatus::kInvalidRequest:
      return "invalid_request";
    case ServiceStatus::kWireError:
      return "wire_error";
    case ServiceStatus::kTimeout:
      return "timeout";
    case ServiceStatus::kVersionMismatch:
      return "version_mismatch";
    case ServiceStatus::kEpochRetry:
      return "epoch_retry";
    case ServiceStatus::kNotLeader:
      return "not_leader";
    case ServiceStatus::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

}  // namespace mpcmst::service
