#include "support/chaos.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <limits>
#include <sstream>
#include <string_view>

namespace spt::support {

namespace {

// One name table per enum, indexed by enumerator; entry 0 is kNone. Each
// table serves both toString and parsing, where "none" is not a spelling.
constexpr std::array<std::string_view, 7> kChaosActionNames = {
    "none", "crash", "abort", "hang", "garbage", "partial", "exit"};
constexpr std::array<std::string_view, 4> kClientChaosActionNames = {
    "none", "disconnect", "garbage", "slow-reader"};
constexpr std::array<std::string_view, 5> kServiceCrashPointNames = {
    "none", "admit", "settle", "flush", "append"};

template <typename Enum, std::size_t N>
std::string nameOf(const std::array<std::string_view, N>& names, Enum e) {
  const auto i = static_cast<std::size_t>(e);
  return std::string(i < N ? names[i] : names[0]);
}

/// The enumerator spelled `name`, if any.
template <typename Enum, std::size_t N>
std::optional<Enum> named(const std::array<std::string_view, N>& names,
                          std::string_view name) {
  for (std::size_t i = 1; i < N; ++i) {
    if (names[i] == name) return static_cast<Enum>(i);
  }
  return std::nullopt;
}

/// "a|b|c": every spelling, for diagnostics.
template <std::size_t N>
std::string spellings(const std::array<std::string_view, N>& names) {
  std::string out;
  for (std::size_t i = 1; i < N; ++i) {
    if (i > 1) out += '|';
    out += names[i];
  }
  return out;
}

/// Sets `*error` when given; converts to an empty optional of any plan.
std::nullopt_t refuse(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

/// Decimal digits only: no sign, no whitespace, no overflow.
bool parseUnsigned(std::string_view s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// One term of the sabotage grammar, `[N:]NAME[@N][:N]`. Names begin with
/// a letter, so text before the first ':' that does not is the N: prefix.
/// Each plan decides which of the optional parts it allows.
struct Term {
  std::optional<std::uint64_t> prefix;
  std::string name;
  std::optional<std::uint64_t> at;
  std::optional<std::uint64_t> suffix;
};

/// Splits `text` into a Term; `what` names it in the diagnostic.
std::optional<Term> parseTerm(std::string_view text, const std::string& what,
                              std::string* error) {
  Term term;
  std::uint64_t n = 0;
  std::size_t pos = 0;
  const std::size_t colon = text.find(':');
  if (colon != std::string_view::npos &&
      !std::isalpha(static_cast<unsigned char>(text[0]))) {
    if (!parseUnsigned(text.substr(0, colon), n)) {
      return refuse(error, what + " has a malformed N: prefix");
    }
    term.prefix = n;
    pos = colon + 1;
  }
  const std::size_t end = std::min(text.find_first_of("@:", pos), text.size());
  term.name = std::string(text.substr(pos, end - pos));
  pos = end;
  if (pos < text.size() && text[pos] == '@') {
    const std::size_t stop = std::min(text.find(':', pos + 1), text.size());
    if (!parseUnsigned(text.substr(pos + 1, stop - pos - 1), n)) {
      return refuse(error, what + " has a malformed @N suffix");
    }
    term.at = n;
    pos = stop;
  }
  if (pos < text.size()) {
    if (!parseUnsigned(text.substr(pos + 1), n)) {
      return refuse(error, what + " has a malformed :N suffix");
    }
    term.suffix = n;
  }
  return term;
}

/// The canonical spelling of `term`; parseTerm reads it back.
std::string formatTerm(const Term& term) {
  std::string s;
  if (term.prefix) s += std::to_string(*term.prefix) + ':';
  s += term.name;
  if (term.at) s += '@' + std::to_string(*term.at);
  if (term.suffix) s += ':' + std::to_string(*term.suffix);
  return s;
}

}  // namespace

std::string toString(ChaosAction action) {
  return nameOf(kChaosActionNames, action);
}

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
  ChaosPlan plan;
  std::istringstream in(spec);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    if (entry.empty()) continue;
    const std::string what = "chaos entry '" + entry + "'";
    const std::optional<Term> term = parseTerm(entry, what, error);
    if (!term) return std::nullopt;
    if (!term->prefix || term->suffix) {
      return refuse(error, what + " is not CELL:ACTION[@ATTEMPTS]");
    }
    Directive d;
    d.cell = static_cast<std::size_t>(*term->prefix);
    const auto action = named<ChaosAction>(kChaosActionNames, term->name);
    if (!action) {
      return refuse(error, what + " names unknown action '" + term->name +
                               "' (expected " +
                               spellings(kChaosActionNames) + ")");
    }
    d.action = *action;
    if (term->at) {
      if (*term->at == 0 ||
          *term->at > std::numeric_limits<std::uint32_t>::max()) {
        return refuse(error, what + " has a malformed @ATTEMPTS suffix");
      }
      d.until_attempt = static_cast<std::uint32_t>(*term->at);
    }
    plan.directives.push_back(d);
  }
  return plan;
}

std::string ChaosPlan::toSpec() const {
  std::string s;
  for (const Directive& d : directives) {
    if (!s.empty()) s += ',';
    Term term{d.cell, toString(d.action), std::nullopt, std::nullopt};
    if (d.until_attempt != ~std::uint32_t{0}) term.at = d.until_attempt;
    s += formatTerm(term);
  }
  return s;
}

std::string toString(ClientChaosAction action) {
  return nameOf(kClientChaosActionNames, action);
}

std::optional<ClientChaosPlan> ClientChaosPlan::parse(const std::string& spec,
                                                      std::string* error) {
  const std::string what = "client chaos spec '" + spec + "'";
  const std::optional<Term> term = parseTerm(spec, what, error);
  if (!term) return std::nullopt;
  if (term->prefix || term->suffix) {
    return refuse(error, what + " is not ACTION[@N]");
  }
  const auto action =
      named<ClientChaosAction>(kClientChaosActionNames, term->name);
  if (!action) {
    return refuse(error, what + " names unknown action '" + term->name +
                             "' (expected " +
                             spellings(kClientChaosActionNames) + ")");
  }
  ClientChaosPlan plan;
  plan.action = *action;
  if (term->at) {
    (*action == ClientChaosAction::kSlowReader ? plan.delay_ms
                                               : plan.after_results) =
        *term->at;
  }
  return plan;
}

std::string ClientChaosPlan::toSpec() const {
  if (action == ClientChaosAction::kNone) return "";
  Term term{std::nullopt, toString(action), std::nullopt, std::nullopt};
  if (action == ClientChaosAction::kSlowReader) {
    term.at = delay_ms;
  } else if (after_results != 0) {
    term.at = after_results;
  }
  return formatTerm(term);
}

std::string toString(ServiceCrashPoint point) {
  return nameOf(kServiceCrashPointNames, point);
}

std::optional<ServiceCrashPlan> ServiceCrashPlan::parse(
    const std::string& spec, std::string* error) {
  ServiceCrashPlan plan;
  if (spec.empty()) return plan;  // inert
  const std::string what = "crash spec '" + spec + "'";
  const std::optional<Term> term = parseTerm(spec, what, error);
  if (!term) return std::nullopt;
  if (term->prefix) return refuse(error, what + " is not POINT[@AT][:BYTES]");
  const auto point =
      named<ServiceCrashPoint>(kServiceCrashPointNames, term->name);
  if (!point) {
    return refuse(error, what + " names unknown point '" + term->name +
                             "' (expected " +
                             spellings(kServiceCrashPointNames) + ")");
  }
  if (term->at == std::uint64_t{0}) {
    return refuse(error, what + " has a malformed @AT suffix");
  }
  plan.point = *point;
  plan.at = term->at.value_or(1);
  plan.bytes = term->suffix.value_or(0);
  return plan;
}

std::string ServiceCrashPlan::toSpec() const {
  if (point == ServiceCrashPoint::kNone) return "";
  Term term{std::nullopt, toString(point), std::nullopt, std::nullopt};
  if (at != 1) term.at = at;
  if (bytes != 0) term.suffix = bytes;
  return formatTerm(term);
}

}  // namespace spt::support
