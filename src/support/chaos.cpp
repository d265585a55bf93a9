#include "support/chaos.h"

#include <charconv>
#include <limits>
#include <sstream>

namespace spt::support {

std::string toString(ChaosAction action) {
  switch (action) {
    case ChaosAction::kNone:
      return "none";
    case ChaosAction::kCrash:
      return "crash";
    case ChaosAction::kAbort:
      return "abort";
    case ChaosAction::kHang:
      return "hang";
    case ChaosAction::kGarbage:
      return "garbage";
    case ChaosAction::kPartial:
      return "partial";
    case ChaosAction::kExit:
      return "exit";
  }
  return "none";
}

namespace {

bool actionFromString(const std::string& s, ChaosAction& out) {
  if (s == "crash") {
    out = ChaosAction::kCrash;
  } else if (s == "abort") {
    out = ChaosAction::kAbort;
  } else if (s == "hang") {
    out = ChaosAction::kHang;
  } else if (s == "garbage") {
    out = ChaosAction::kGarbage;
  } else if (s == "partial") {
    out = ChaosAction::kPartial;
  } else if (s == "exit") {
    out = ChaosAction::kExit;
  } else {
    return false;
  }
  return true;
}

/// Decimal digits only: no sign, no whitespace, no overflow.
bool parseUnsigned(const std::string& s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

ChaosAction ChaosPlan::actionFor(std::size_t cell,
                                 std::uint32_t attempt) const {
  ChaosAction action = ChaosAction::kNone;
  for (const Directive& d : directives) {
    if (d.cell == cell && attempt <= d.until_attempt) action = d.action;
  }
  return action;
}

std::optional<ChaosPlan> ChaosPlan::parse(const std::string& spec,
                                          std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<ChaosPlan> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  ChaosPlan plan;
  std::istringstream in(spec);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return fail("chaos entry '" + entry +
                  "' is not CELL:ACTION[@ATTEMPTS]");
    }
    Directive d;
    std::uint64_t cell = 0;
    if (!parseUnsigned(entry.substr(0, colon), cell)) {
      return fail("chaos entry '" + entry + "' has a malformed cell index");
    }
    d.cell = static_cast<std::size_t>(cell);
    std::string action = entry.substr(colon + 1);
    const std::size_t at = action.find('@');
    if (at != std::string::npos) {
      std::uint64_t attempts = 0;
      if (!parseUnsigned(action.substr(at + 1), attempts) || attempts == 0 ||
          attempts > std::numeric_limits<std::uint32_t>::max()) {
        return fail("chaos entry '" + entry +
                    "' has a malformed @ATTEMPTS suffix");
      }
      d.until_attempt = static_cast<std::uint32_t>(attempts);
      action.resize(at);
    }
    if (!actionFromString(action, d.action)) {
      return fail("chaos entry '" + entry + "' names unknown action '" +
                  action +
                  "' (expected crash|abort|hang|garbage|partial|exit)");
    }
    plan.directives.push_back(d);
  }
  return plan;
}

std::string ChaosPlan::toSpec() const {
  std::ostringstream os;
  bool first = true;
  for (const Directive& d : directives) {
    if (!first) os << ',';
    first = false;
    os << d.cell << ':' << toString(d.action);
    if (d.until_attempt != ~std::uint32_t{0}) os << '@' << d.until_attempt;
  }
  return os.str();
}

std::string toString(ClientChaosAction action) {
  switch (action) {
    case ClientChaosAction::kNone:
      return "none";
    case ClientChaosAction::kDisconnect:
      return "disconnect";
    case ClientChaosAction::kGarbage:
      return "garbage";
    case ClientChaosAction::kSlowReader:
      return "slow-reader";
  }
  return "none";
}

std::optional<ClientChaosPlan> ClientChaosPlan::parse(const std::string& spec,
                                                      std::string* error) {
  const auto fail =
      [&](const std::string& why) -> std::optional<ClientChaosPlan> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  ClientChaosPlan plan;
  std::string action = spec;
  std::uint64_t suffix = 0;
  bool have_suffix = false;
  const std::size_t at = action.find('@');
  if (at != std::string::npos) {
    if (!parseUnsigned(action.substr(at + 1), suffix)) {
      return fail("client chaos spec '" + spec +
                  "' has a malformed @ suffix");
    }
    have_suffix = true;
    action.resize(at);
  }
  if (action == "disconnect") {
    plan.action = ClientChaosAction::kDisconnect;
    if (have_suffix) plan.after_results = suffix;
  } else if (action == "garbage") {
    plan.action = ClientChaosAction::kGarbage;
    if (have_suffix) plan.after_results = suffix;
  } else if (action == "slow-reader") {
    plan.action = ClientChaosAction::kSlowReader;
    if (have_suffix) plan.delay_ms = suffix;
  } else {
    return fail("client chaos spec '" + spec + "' names unknown action '" +
                action + "' (expected disconnect|garbage|slow-reader)");
  }
  return plan;
}

std::string ClientChaosPlan::toSpec() const {
  if (action == ClientChaosAction::kNone) return "";
  std::string s = toString(action);
  if (action == ClientChaosAction::kSlowReader) {
    s += '@' + std::to_string(delay_ms);
  } else if (after_results != 0) {
    s += '@' + std::to_string(after_results);
  }
  return s;
}

std::string toString(ServiceCrashPoint point) {
  switch (point) {
    case ServiceCrashPoint::kNone:
      return "none";
    case ServiceCrashPoint::kAfterAdmit:
      return "admit";
    case ServiceCrashPoint::kAfterSettle:
      return "settle";
    case ServiceCrashPoint::kMidFlush:
      return "flush";
    case ServiceCrashPoint::kMidAppend:
      return "append";
  }
  return "none";
}

std::optional<ServiceCrashPlan> ServiceCrashPlan::parse(
    const std::string& spec, std::string* error) {
  const auto fail =
      [&](const std::string& why) -> std::optional<ServiceCrashPlan> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  ServiceCrashPlan plan;
  if (spec.empty()) return plan;  // inert
  std::string point = spec;
  const std::size_t colon = point.find(':');
  if (colon != std::string::npos) {
    if (!parseUnsigned(point.substr(colon + 1), plan.bytes)) {
      return fail("crash spec '" + spec + "' has a malformed :BYTES suffix");
    }
    point.resize(colon);
  }
  const std::size_t at = point.find('@');
  if (at != std::string::npos) {
    if (!parseUnsigned(point.substr(at + 1), plan.at) || plan.at == 0) {
      return fail("crash spec '" + spec + "' has a malformed @AT suffix");
    }
    point.resize(at);
  }
  if (point == "admit") {
    plan.point = ServiceCrashPoint::kAfterAdmit;
  } else if (point == "settle") {
    plan.point = ServiceCrashPoint::kAfterSettle;
  } else if (point == "flush") {
    plan.point = ServiceCrashPoint::kMidFlush;
  } else if (point == "append") {
    plan.point = ServiceCrashPoint::kMidAppend;
  } else {
    return fail("crash spec '" + spec + "' names unknown point '" + point +
                "' (expected admit|settle|flush|append)");
  }
  return plan;
}

std::string ServiceCrashPlan::toSpec() const {
  if (point == ServiceCrashPoint::kNone) return "";
  std::string s = toString(point);
  if (at != 1) s += '@' + std::to_string(at);
  if (bytes != 0) s += ':' + std::to_string(bytes);
  return s;
}

}  // namespace spt::support
