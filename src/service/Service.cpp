//===- service/Service.cpp - anosyd request/response vocabulary -----------===//

#include "service/Service.h"

#include "obs/Trace.h"

#include <cstdio>

using namespace anosy;
using namespace anosy::service;

const char *anosy::service::requestKindName(RequestKind K) {
  switch (K) {
  case RequestKind::Register:
    return "register";
  case RequestKind::Downgrade:
    return "downgrade";
  case RequestKind::Classify:
    return "classify";
  case RequestKind::Flush:
    return "flush";
  }
  return "unknown";
}

const char *anosy::service::responseStatusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::Refused:
    return "refused";
  case ResponseStatus::Bottom:
    return "bottom";
  case ResponseStatus::Overloaded:
    return "overloaded";
  case ResponseStatus::Error:
    return "error";
  }
  return "unknown";
}

std::string ServiceResponse::renderJson() const {
  std::string Out = "{\"id\":" + std::to_string(Id);
  Out += ",\"status\":\"";
  Out += responseStatusName(Status);
  Out += '"';
  if (Reason != ReasonCode::None) {
    Out += ",\"reason\":\"";
    Out += reasonCodeName(Reason);
    Out += '"';
  }
  if (HasBool)
    Out += std::string(",\"value\":") + (BoolValue ? "true" : "false");
  if (HasInt)
    Out += ",\"value\":" + std::to_string(IntValue);
  if (Queries != 0 || Classifiers != 0) {
    Out += ",\"queries\":" + std::to_string(Queries);
    Out += ",\"classifiers\":" + std::to_string(Classifiers);
  }
  if (!Degraded.empty()) {
    Out += ",\"degraded\":[";
    for (size_t I = 0; I != Degraded.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += "{\"query\":" + obs::jsonQuote(Degraded[I].Name) + ",\"code\":\"";
      Out += reasonCodeName(Degraded[I].Code);
      Out += Degraded[I].FellBack ? "\",\"bottom\":true}" : "\",\"bottom\":false}";
    }
    Out += ']';
  }
  if (!Detail.empty())
    Out += ",\"detail\":" + obs::jsonQuote(Detail);
  if (Seconds > 0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6f", Seconds);
    Out += ",\"seconds\":";
    Out += Buf;
  }
  Out += '}';
  return Out;
}
