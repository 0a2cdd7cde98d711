//===- service/Service.h - anosyd request/response vocabulary ---*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire vocabulary of the anosyd monitor daemon (DESIGN.md §10): what
/// a client can ask a tenant's monitor to do, and the deterministic
/// response every request is guaranteed to receive. The robustness
/// contract lives in the response shape: a request either produces an
/// admitted answer (Ok), a sound conservative refusal (Refused), an
/// explicit ⊥ with a machine-readable ReasonCode (Bottom), an explicit
/// load-shed (Overloaded, also coded), or a hard Error — never a hang and
/// never an unsound answer.
///
/// Responses render as single-line JSON so the daemon's stdout protocol
/// and the load harness can be parsed with a line splitter; the rendering
/// is deterministic (fixed key order, no floats except the service-time
/// field).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SERVICE_SERVICE_H
#define ANOSY_SERVICE_SERVICE_H

#include "core/Degradation.h"
#include "expr/Schema.h"

#include <cstdint>
#include <string>
#include <vector>

namespace anosy::service {

/// What a request asks the daemon to do.
enum class RequestKind {
  /// Register a tenant: parse the module, run lint admission, synthesize
  /// and verify every query, install the tenant shard.
  Register,
  /// Fig. 2 bounded downgrade of a boolean query for one secret.
  Downgrade,
  /// Bounded downgrade of a multi-output classifier (§5.1 extension).
  Classify,
  /// Persist the tenant's knowledge base to the data directory.
  Flush,
};

const char *requestKindName(RequestKind K);

/// One request through the daemon's front door.
struct ServiceRequest {
  RequestKind Kind = RequestKind::Downgrade;
  std::string Tenant;
  /// Register: full `.anosy` module source.
  std::string ModuleSource;
  /// Register: minSizePolicy threshold for the tenant; < 0 selects the
  /// permissive policy. Persisted alongside the knowledge base so a
  /// restarted daemon recovers the tenant under the same policy.
  int64_t MinSize = -1;
  /// Downgrade/Classify: the query or classifier name.
  std::string Name;
  /// Downgrade/Classify: the secret the monitor answers about.
  Point Secret;
  /// Per-request deadline in milliseconds; 0 uses the daemon default.
  /// Propagated into the registration's SolverBudget and enforced on
  /// queued requests (a request that outlives its deadline in the queue
  /// is answered ⊥/deadline without execution).
  uint64_t DeadlineMs = 0;
};

/// The five deterministic response shapes.
enum class ResponseStatus {
  /// An admitted answer (or a completed Register/Flush).
  Ok,
  /// A sound conservative refusal: the policy refused the downgrade, or
  /// the name is unknown. No knowledge was leaked.
  Refused,
  /// ⊥: the caller gets no information and Reason says why
  /// (deadline/budget/shed/statically-rejected/...).
  Bottom,
  /// Load-shed at the front door or the bounded queue; Reason is Shed.
  /// The request was not executed — retry later.
  Overloaded,
  /// Malformed request, unknown tenant, quota violation, or an internal
  /// hard error. Detail carries the message.
  Error,
};

const char *responseStatusName(ResponseStatus S);

/// Per-query degradation summary attached to Register responses.
struct DegradedQueryJson {
  std::string Name;
  ReasonCode Code = ReasonCode::None;
  bool FellBack = false;
};

/// The deterministic response every request receives.
struct ServiceResponse {
  uint64_t Id = 0;
  ResponseStatus Status = ResponseStatus::Error;
  /// Machine-readable reason for Bottom/Overloaded (and for degraded
  /// registrations); None otherwise.
  ReasonCode Reason = ReasonCode::None;
  /// Downgrade answer.
  bool HasBool = false;
  bool BoolValue = false;
  /// Classify answer.
  bool HasInt = false;
  int64_t IntValue = 0;
  std::string Detail;
  /// Register summary.
  unsigned Queries = 0;
  unsigned Classifiers = 0;
  std::vector<DegradedQueryJson> Degraded;
  /// Wall seconds from accept to completion (0 for front-door rejects).
  double Seconds = 0;

  /// Single-line JSON with fixed key order; parseable by line splitters.
  std::string renderJson() const;
};

} // namespace anosy::service

#endif // ANOSY_SERVICE_SERVICE_H
