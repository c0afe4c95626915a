#include "fault/fault_plan.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>
#include <utility>

namespace dcp {

namespace {

// std::from_chars over the whole token: it takes no leading whitespace or
// '+', and no '-' for an unsigned type.
template <typename T>
bool from_whole_token(std::string_view v, T* out) {
  T x{};
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || ptr != v.data() + v.size()) return false;
  *out = x;
  return true;
}

}  // namespace

bool parse_uint(const std::string& v, std::uint64_t* out) { return from_whole_token(v, out); }

bool parse_int(const std::string& v, int* out) { return from_whole_token(v, out); }

bool parse_double(const std::string& v, double* out) {
  double x = 0;
  if (!from_whole_token(v, &x) || !std::isfinite(x)) return false;
  *out = x;
  return true;
}

bool parse_time(const std::string& v, Time* out) {
  // "s" last: it also ends the other three units.
  static constexpr std::pair<std::string_view, Time> kUnits[] = {
      {"ns", kNanosecond}, {"us", kMicrosecond}, {"ms", kMillisecond}, {"s", kSecond}};
  std::string_view num = v;
  Time unit = kMicrosecond;
  for (const auto& [suffix, scale] : kUnits) {
    if (num.ends_with(suffix)) {
      num.remove_suffix(suffix.size());
      unit = scale;
      break;
    }
  }
  double x = 0;
  if (!parse_double(std::string(num), &x)) return false;
  const double ps = x * static_cast<double>(unit);
  // 2^63: every double below it converts to Time without overflow.
  if (!(std::fabs(ps) < static_cast<double>(kTimeInfinity))) return false;
  // To the nearest picosecond: a decimal in a coarser unit lands within an
  // ulp of its picosecond count, possibly below it.
  *out = static_cast<Time>(std::llround(ps));
  return true;
}

std::string double_to_str(double x) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, x, std::chars_format::general).ptr);
}

// Below 2^51 ps a double carries a time to well under half a picosecond,
// and parse_time() rounds to the nearest one.
std::string time_to_str(Time t) { return double_to_str(to_us(t)) + "us"; }

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

namespace {

bool parse_target(const std::string& v, std::uint32_t* out) {
  if (v == "all" || v == "*") {
    *out = FaultAction::kAll;
    return true;
  }
  std::uint64_t x = 0;
  if (!parse_uint(v, &x) || x >= FaultAction::kAll) return false;
  *out = static_cast<std::uint32_t>(x);
  return true;
}

std::string target_to_str(std::uint32_t t) {
  return t == FaultAction::kAll ? "all" : std::to_string(t);
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kHoLoss: return "ho_loss";
    case FaultKind::kBufferShrink: return "buffer_shrink";
    case FaultKind::kBlackhole: return "blackhole";
  }
  return "?";
}

std::optional<FaultAction> parse_fault_action(const std::string& line, std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<FaultAction> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  std::istringstream in(line);
  std::string kind;
  if (!(in >> kind)) return fail("empty fault action");

  FaultAction a;
  if (kind == "link_flap") a.kind = FaultKind::kLinkFlap;
  else if (kind == "drop") a.kind = FaultKind::kDrop;
  else if (kind == "corrupt") a.kind = FaultKind::kCorrupt;
  else if (kind == "ho_loss") a.kind = FaultKind::kHoLoss;
  else if (kind == "buffer_shrink") a.kind = FaultKind::kBufferShrink;
  else if (kind == "blackhole") a.kind = FaultKind::kBlackhole;
  else return fail("unknown fault kind '" + kind + "'");

  std::string kv;
  while (in >> kv) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) return fail("expected key=value, got '" + kv + "'");
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    bool ok = true;
    if (key == "at") ok = parse_time(val, &a.at);
    else if (key == "dur") ok = parse_time(val, &a.duration);
    else if (key == "sw") ok = parse_target(val, &a.sw);
    else if (key == "port") ok = parse_target(val, &a.port);
    else if (key == "rate") ok = parse_double(val, &a.rate);
    else if (key == "frac") ok = parse_double(val, &a.frac);
    else if (key == "drop_inflight") {
      a.drop_in_flight = (val == "true" || val == "1" || val == "yes");
      ok = a.drop_in_flight || val == "false" || val == "0" || val == "no";
    } else {
      return fail("unknown fault key '" + key + "'");
    }
    if (!ok) return fail("bad value '" + val + "' for '" + key + "'");
  }

  if (a.rate < 0.0 || a.rate > 1.0) return fail("rate must be in [0, 1]");
  if (a.frac < 0.0 || a.frac > 1.0) return fail("frac must be in [0, 1]");
  if (a.at < 0) return fail("at must be >= 0");
  if (a.duration < 0) return fail("dur must be >= 0");
  return a;
}

std::optional<FaultPlan> parse_fault_plan(const std::string& text, std::string* error) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    std::string err;
    auto a = parse_fault_action(line, &err);
    if (!a) {
      if (error != nullptr) *error = "fault line " + std::to_string(line_no) + ": " + err;
      return std::nullopt;
    }
    plan.actions.push_back(*a);
  }
  return plan;
}

std::string FaultPlan::to_config_text() const {
  std::string out;
  for (const FaultAction& a : actions) {
    out += fault_kind_name(a.kind);
    out += " at=" + time_to_str(a.at);
    if (a.duration > 0) out += " dur=" + time_to_str(a.duration);
    out += " sw=" + target_to_str(a.sw);
    // ho_loss / buffer_shrink are switch-wide and ignore the port, but a
    // parsed value is preserved so serialize(parse(x)) round-trips exactly.
    if (a.port != FaultAction::kAll ||
        (a.kind != FaultKind::kHoLoss && a.kind != FaultKind::kBufferShrink)) {
      out += " port=" + target_to_str(a.port);
    }
    if (a.kind == FaultKind::kDrop || a.kind == FaultKind::kCorrupt ||
        a.kind == FaultKind::kHoLoss) {
      out += " rate=" + double_to_str(a.rate);
    }
    if (a.kind == FaultKind::kBufferShrink) out += " frac=" + double_to_str(a.frac);
    if (a.kind == FaultKind::kLinkFlap && a.drop_in_flight) out += " drop_inflight=true";
    out += '\n';
  }
  return out;
}

}  // namespace dcp
