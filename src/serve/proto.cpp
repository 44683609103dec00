#include "serve/proto.h"

#include "core/domain.h"
#include "trace/json.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <span>
#include <sstream>
#include <system_error>
#include <utility>

namespace ipso::serve {

using trace::json_double;
using trace::json_escape;

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kFit: return "fit";
    case Op::kPredict: return "predict";
    case Op::kClassify: return "classify";
    case Op::kDiagnose: return "diagnose";
    case Op::kRecommend: return "recommend";
    case Op::kObserve: return "observe";
    case Op::kCompare: return "compare";
    case Op::kStats: return "stats";
    case Op::kUnknown: return "unknown";
  }
  return "unknown";
}

Op op_from_string(std::string_view name) noexcept {
  if (name == "ping") return Op::kPing;
  if (name == "fit") return Op::kFit;
  if (name == "predict") return Op::kPredict;
  if (name == "classify") return Op::kClassify;
  if (name == "diagnose") return Op::kDiagnose;
  if (name == "recommend") return Op::kRecommend;
  if (name == "observe") return Op::kObserve;
  if (name == "compare") return Op::kCompare;
  if (name == "stats") return Op::kStats;
  return Op::kUnknown;
}

std::vector<double> Request::grid() const {
  if (!ns.empty()) return ns;
  std::vector<double> out;
  for (double n = 1.0; n <= 1024.0; n *= 2.0) out.push_back(n);
  return out;
}

FactorMeasurements Request::measurements() const {
  FactorMeasurements m;
  m.eta = eta;
  m.ex = ex;
  m.in = in;
  m.q = q;
  return m;
}

namespace {

const char* shape_name(GrowthShape s) noexcept {
  switch (s) {
    case GrowthShape::kLinear: return "linear";
    case GrowthShape::kSublinear: return "sublinear";
    case GrowthShape::kBounded: return "bounded";
    case GrowthShape::kPeaked: return "peaked";
  }
  return "unknown";
}

std::optional<WorkloadType> workload_from_string(std::string_view name) {
  if (name == "fixed-time") return WorkloadType::kFixedTime;
  if (name == "fixed-size") return WorkloadType::kFixedSize;
  if (name == "memory-bounded") return WorkloadType::kMemoryBounded;
  return std::nullopt;
}

const char* workload_name(WorkloadType t) noexcept {
  switch (t) {
    case WorkloadType::kFixedSize: return "fixed-size";
    case WorkloadType::kFixedTime: return "fixed-time";
    case WorkloadType::kMemoryBounded: return "memory-bounded";
  }
  return "unknown";
}

/// The protocol's one JSON reader. check() validates a whole text as one
/// JSON value, with the bounds a serving thread needs against hostile
/// input: nesting at most 64 levels deep, numbers finite doubles. It also
/// records where the values of chosen top-level keys lie. The decode
/// helpers below run the same reader over those already-checked spans and
/// read them straight into Request fields, so no document tree is built.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Checks that the text is one JSON value with only whitespace around
  /// it. When it is an object, spans[i] is set to the last value it gives
  /// keys[i] (a duplicate key replaces the earlier value); keys it lacks
  /// keep an empty span. Returns "<reason> at offset <byte>" on a syntax
  /// error.
  std::optional<std::string> check(std::span<const std::string_view> keys,
                                   std::span<std::string_view> spans) {
    keys_ = keys;
    spans_ = spans;
    if (value(0)) {
      skip_ws();
      if (pos_ == text_.size()) return std::nullopt;
      fail("trailing characters");
    }
    return std::string(error_) + " at offset " + std::to_string(error_at_);
  }

  // Decoding steps over checked text. Each returns false when the next
  // value does not have the asked-for shape.

  /// Reads `c` after any whitespace.
  bool token(char c) {
    skip_ws();
    return consume(c);
  }

  /// Reads a number value into *out.
  bool number_value(double* out) {
    skip_ws();
    if (pos_ == text_.size()) return false;
    const char c = text_[pos_];
    if (c != '-' && c != '+' && c != '.' && (c < '0' || c > '9')) {
      return false;
    }
    return number(out);
  }

  /// Reads a string value, unescaped, into *out.
  bool string_value(std::string* out) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == '"' && string(out);
  }

  /// Reads an array, calling element() once per element with the reader
  /// positioned at it; stops at the first element() that returns false.
  template <typename F>
  bool elements(F&& element) {
    if (!token('[')) return false;
    if (token(']')) return true;
    do {
      if (!element()) return false;
    } while (token(','));
    return token(']');
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* reason) {
    error_ = reason;
    error_at_ = pos_;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string(nullptr);
      default: break;
    }
    return word("true") || word("false") || word("null") || number(nullptr);
  }

  bool object(int depth) {
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    const bool record = depth == 0 && !keys_.empty();
    while (true) {
      skip_ws();
      if (record) key_.clear();
      if (!string(record ? &key_ : nullptr)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      const std::size_t start = pos_;
      if (!value(depth + 1)) return false;
      if (record) {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
          if (keys_[i] != key_) continue;
          const std::string_view v = text_.substr(start, pos_ - start);
          spans_[i] = v.substr(v.find_first_not_of(" \t\n\r"));
        }
      }
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(int depth) {
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      if (!value(depth + 1)) return false;
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  /// Reads a string; unescapes it into *out unless out is null.
  bool string(std::string* out) {
    if (!consume('"')) return fail("expected string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        if (out != nullptr) out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escaped = text_[pos_++];
      char plain = 0;
      switch (escaped) {
        case '"': plain = '"'; break;
        case '\\': plain = '\\'; break;
        case '/': plain = '/'; break;
        case 'n': plain = '\n'; break;
        case 't': plain = '\t'; break;
        case 'r': plain = '\r'; break;
        case 'b': plain = '\b'; break;
        case 'f': plain = '\f'; break;
        case 'u': {
          unsigned code = 0;
          if (!hex4(&code)) return false;
          if (out != nullptr) append_utf8(out, code);
          continue;
        }
        default: return fail("unknown escape");
      }
      if (out != nullptr) out->push_back(plain);
    }
    return fail("unterminated string");
  }

  bool hex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      int digit = -1;
      if (h >= '0' && h <= '9') digit = h - '0';
      if (h >= 'a' && h <= 'f') digit = h - 'a' + 10;
      if (h >= 'A' && h <= 'F') digit = h - 'A' + 10;
      if (digit < 0) return fail("bad \\u escape digit");
      *code = (*code << 4) | static_cast<unsigned>(digit);
    }
    return true;
  }

  /// The protocol is ASCII; non-ASCII escapes encode as UTF-8 (a lone
  /// surrogate as its own three bytes).
  static void append_utf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// Reads a number token: an optional sign, then digits, '.', 'e' and 'E',
  /// with a sign allowed again only right after an exponent mark.
  bool number(double* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    double v = 0.0;
    if (!read_double(text_.substr(start, pos_ - start), &v)) {
      pos_ = start;
      return fail(std::isinf(v) ? "number out of double range"
                                : "malformed number");
    }
    if (out != nullptr) *out = v;
    return true;
  }

  /// Reads a whole token the way strtod does: a leading '+' is allowed, a
  /// value below half the smallest denormal reads as a signed zero, and
  /// only overflow is out of range (then *out is infinite). std::from_chars
  /// reads the same values, exactly and several times faster, but rejects
  /// the '+' and reports underflow as out of range; those two cases are
  /// mapped here.
  static bool read_double(std::string_view token, double* out) {
    const char* first = token.data();
    const char* const last = first + token.size();
    if (last - first > 1 && first[0] == '+' && first[1] != '-') ++first;
    const auto [end, ec] = std::from_chars(first, last, *out);
    if (ec == std::errc::invalid_argument || end != last) return false;
    if (ec == std::errc::result_out_of_range) {
      *out = std::copysign(below_one(token) ? 0.0 : HUGE_VAL,
                           token[0] == '-' ? -1.0 : 1.0);
      return *out == 0.0;
    }
    return true;
  }

  /// Whether a well-formed number token with a nonzero digit has magnitude
  /// below 1. Out of range, that separates underflow from overflow.
  static bool below_one(std::string_view token) {
    const std::size_t e = std::min(token.find_first_of("eE"), token.size());
    const std::string_view mantissa = token.substr(0, e);
    const auto point = static_cast<long long>(
        std::min(mantissa.find('.'), mantissa.size()));
    const auto lead =
        static_cast<long long>(mantissa.find_first_of("123456789"));
    // The mantissa's first significant digit stands for 10^scale.
    const long long scale = lead < point ? point - lead - 1 : point - lead;
    long long exponent = 0;  // saturated: only its sign and size matter
    for (const char c : token.substr(e)) {
      if (c >= '0' && c <= '9') {
        exponent = std::min(exponent * 10 + (c - '0'), 1'000'000'000LL);
      }
    }
    if (token.find('-', e) != std::string_view::npos) exponent = -exponent;
    return scale + exponent < 0;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::span<const std::string_view> keys_;
  std::span<std::string_view> spans_;
  std::string key_;
  const char* error_ = "";
  std::size_t error_at_ = 0;
};

/// The number a checked value holds; nullopt for any other kind and for an
/// absent (empty) value.
std::optional<double> number_of(std::string_view value) {
  double out = 0.0;
  if (!JsonReader(value).number_value(&out)) return std::nullopt;
  return out;
}

/// The unescaped string a checked value holds; nullopt otherwise.
std::optional<std::string> string_of(std::string_view value) {
  std::string out;
  if (!JsonReader(value).string_value(&out)) return std::nullopt;
  return out;
}

/// Reads a checked array of [x, y] pairs into a named series.
bool read_series(std::string_view value, stats::Series* out,
                 std::string* error, std::string_view key) {
  JsonReader r(value);
  const bool ok = r.elements([&] {
    double x = 0.0;
    double y = 0.0;
    if (!(r.token('[') && r.number_value(&x) && r.token(',') &&
          r.number_value(&y) && r.token(']'))) {
      return false;
    }
    out->add(x, y);
    return true;
  });
  if (!ok) {
    *error = std::string("expected array of [n,v] pairs for '").append(key);
    *error += "'";
  }
  return ok;
}

enum Field {
  kOp, kId, kWorkload, kEta, kEx, kIn, kQ, kSpeedup, kParams, kNs, kKey, kN,
  kValue, kObservations, kKneeFrac, kDeadlineMs, kFields
};
constexpr std::array<std::string_view, kFields> kFieldKeys = {
    "op", "id", "workload", "eta", "ex", "in", "q", "speedup", "params",
    "ns", "key", "n", "value", "observations", "knee_frac", "deadline_ms"};

enum ParamsField {
  kParamsWorkload, kParamsEta, kAlpha, kDelta, kBeta, kGamma, kParamsFields
};
constexpr std::array<std::string_view, kParamsFields> kParamsKeys = {
    "workload", "eta", "alpha", "delta", "beta", "gamma"};

bool read_params(std::string_view value, AsymptoticParams* out,
                 std::string* error) {
  if (value.front() != '{') {
    *error = "'params' must be an object";
    return false;
  }
  std::array<std::string_view, kParamsFields> field{};
  // Already checked as part of the request line; this pass only records
  // where the params fields lie.
  (void)JsonReader(value).check(kParamsKeys, field);
  if (!field[kParamsWorkload].empty()) {
    const std::string name = string_of(field[kParamsWorkload]).value_or("");
    const auto type = workload_from_string(name);
    if (!type) {
      *error = "unknown workload '" + name + "' in params";
      return false;
    }
    out->type = *type;
  }
  // A present field of another kind reads as the field's neutral value.
  const auto set = [&](ParamsField f, double* to, double fallback) {
    if (!field[f].empty()) *to = number_of(field[f]).value_or(fallback);
  };
  set(kParamsEta, &out->eta, 1.0);
  set(kAlpha, &out->alpha, 1.0);
  set(kDelta, &out->delta, 1.0);
  set(kBeta, &out->beta, 0.0);
  set(kGamma, &out->gamma, 0.0);
  // Domain validation at the protocol boundary (core/domain.h): values that
  // would violate a core-type precondition are rejected here with a named,
  // per-field error instead of tripping a contract deep in a worker.
  if (out->eta <= 0.0 || !Eta::valid(out->eta)) {
    *error = "params.eta out of domain: serve requires eta in (0, 1]";
    return false;
  }
  if (!Alpha::valid(out->alpha)) {
    *error = "params.alpha out of domain: alpha must be finite and > 0";
    return false;
  }
  if (!Delta::valid(out->delta)) {
    *error = "params.delta out of domain: delta must be in [0, 1]";
    return false;
  }
  if (!Beta::valid(out->beta)) {
    *error = "params.beta out of domain: beta must be finite and >= 0";
    return false;
  }
  if (!Gamma::valid(out->gamma)) {
    *error = "params.gamma out of domain: gamma must be finite and >= 0";
    return false;
  }
  return true;
}

void append_series_points(std::ostringstream& os, const stats::Series& s) {
  os << "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ",";
    os << "[" << json_double(s[i].x) << "," << json_double(s[i].y) << "]";
  }
  os << "]";
}

void append_power_fit(std::ostringstream& os, const stats::PowerFit& f) {
  os << "{\"coeff\":" << json_double(f.coeff)
     << ",\"exponent\":" << json_double(f.exponent)
     << ",\"r_squared\":" << json_double(f.r_squared) << "}";
}

void append_linear_fit(std::ostringstream& os, const stats::LinearFit& f) {
  os << "{\"slope\":" << json_double(f.slope)
     << ",\"intercept\":" << json_double(f.intercept)
     << ",\"r_squared\":" << json_double(f.r_squared) << "}";
}

}  // namespace

Expected<Request, std::string> parse_request(const std::string& line) {
  // A syntax error anywhere in the line outranks every field error below.
  std::array<std::string_view, kFields> field{};
  if (auto syntax = JsonReader(line).check(kFieldKeys, field)) {
    return *syntax;
  }
  if (line[line.find_first_not_of(" \t\n\r")] != '{') {
    return std::string("request must be a JSON object");
  }

  // Field checks run in this fixed order, so the first failing field names
  // the error. A present field of the wrong kind reads as the fallback
  // given to value_or().
  Request req;
  const auto op = string_of(field[kOp]);
  if (!op) return std::string("missing required string field 'op'");
  req.op = op_from_string(*op);
  if (req.op == Op::kUnknown) return "unknown op '" + *op + "'";

  if (!field[kId].empty()) {
    if (auto id = string_of(field[kId])) {
      req.id = std::move(*id);
    } else if (const auto n = number_of(field[kId])) {
      req.id = json_double(*n);
    } else {
      return std::string("'id' must be a string or number");
    }
  }
  if (!field[kWorkload].empty()) {
    const std::string name = string_of(field[kWorkload]).value_or("");
    const auto type = workload_from_string(name);
    if (!type) return "unknown workload '" + name + "'";
    req.workload = *type;
  }
  std::string error;
  if (!field[kEta].empty()) {
    req.eta = number_of(field[kEta]).value_or(-1.0);
    if (req.eta <= 0.0 || !Eta::valid(req.eta)) {
      return std::string("'eta' must be a number in (0, 1]");
    }
  }
  const std::pair<Field, stats::Series*> factor_series[] = {
      {kEx, &req.ex}, {kIn, &req.in}, {kQ, &req.q}, {kSpeedup, &req.speedup}};
  for (const auto& [f, series] : factor_series) {
    if (!field[f].empty() &&
        !read_series(field[f], series, &error, kFieldKeys[f])) {
      return error;
    }
  }
  if (!field[kParams].empty()) {
    AsymptoticParams p;
    p.type = req.workload;
    if (!read_params(field[kParams], &p, &error)) return error;
    req.params = p;
  }
  if (!field[kNs].empty()) {
    if (field[kNs].front() != '[') {
      return std::string("'ns' must be an array of numbers");
    }
    JsonReader r(field[kNs]);
    const bool ok = r.elements([&] {
      double n = 0.0;
      if (!r.number_value(&n) || n < 1.0) return false;
      req.ns.push_back(n);
      return true;
    });
    if (!ok) return std::string("'ns' entries must be numbers >= 1");
  }
  if (!field[kKey].empty()) {
    auto key = string_of(field[kKey]);
    if (!key) return std::string("'key' must be a string");
    req.workload_key = std::move(*key);
  }
  if (!field[kN].empty()) {
    req.observe_n = number_of(field[kN]).value_or(0.0);
    if (!std::isfinite(req.observe_n) || req.observe_n < 1.0) {
      return std::string("'n' must be a finite number >= 1");
    }
  }
  if (!field[kValue].empty()) {
    req.observe_value = number_of(field[kValue]).value_or(0.0);
    if (!std::isfinite(req.observe_value) || req.observe_value <= 0.0) {
      return std::string("'value' must be a finite number > 0");
    }
  }
  if (!field[kObservations].empty()) {
    if (!read_series(field[kObservations], &req.observations, &error,
                     "observations")) {
      return error;
    }
    for (const auto& p : req.observations.points()) {
      if (!std::isfinite(p.x) || p.x < 1.0 || !std::isfinite(p.y) ||
          p.y <= 0.0) {
        return std::string(
            "'observations' entries must have n >= 1 and speedup > 0");
      }
    }
  }
  if (!field[kKneeFrac].empty()) {
    req.knee_frac = number_of(field[kKneeFrac]).value_or(0.9);
    if (req.knee_frac <= 0.0 || req.knee_frac > 1.0) {
      return std::string("'knee_frac' must be in (0, 1]");
    }
  }
  if (!field[kDeadlineMs].empty()) {
    req.deadline_ms = number_of(field[kDeadlineMs]).value_or(0.0);
    if (req.deadline_ms < 0.0) {
      return std::string("'deadline_ms' must be >= 0");
    }
  }

  // Per-op input requirements, rejected at admission rather than deep in a
  // worker so a malformed request never occupies a queue slot.
  switch (req.op) {
    case Op::kFit:
      if (!req.has_observations()) {
        return std::string("'fit' requires 'ex' observations");
      }
      break;
    case Op::kPredict:
    case Op::kClassify:
    case Op::kRecommend:
      if (!req.params && !req.has_observations()) {
        return "'" + std::string(to_string(req.op)) +
               "' requires 'params' or 'ex' observations";
      }
      break;
    case Op::kDiagnose:
      if (req.speedup.size() < 3) {
        return std::string("'diagnose' requires >= 3 'speedup' points");
      }
      break;
    case Op::kObserve:
      if (req.workload_key.empty()) {
        return std::string("'observe' requires a non-empty 'key'");
      }
      if (req.observe_n < 1.0) {
        return std::string("'observe' requires 'n' >= 1");
      }
      if (req.observe_value <= 0.0) {
        return std::string("'observe' requires 'value' > 0");
      }
      break;
    case Op::kCompare:
      if (req.workload_key.empty() == req.observations.empty()) {
        return std::string(
            "'compare' requires exactly one of 'key' or 'observations'");
      }
      if (!req.observations.empty() && req.observations.size() < 2) {
        return std::string("'compare' requires >= 2 'observations' points");
      }
      break;
    case Op::kPing:
    case Op::kStats:
    case Op::kUnknown:
      break;
  }
  return req;
}

std::string ok_response(const Request& req, const std::string& result) {
  std::ostringstream os;
  os << "{";
  if (!req.id.empty()) os << "\"id\":\"" << json_escape(req.id) << "\",";
  os << "\"op\":\"" << to_string(req.op) << "\",\"ok\":true,\"result\":"
     << result << "}";
  return os.str();
}

std::string error_response(const std::string& id, Op op,
                           std::string_view code, std::string_view message) {
  std::ostringstream os;
  os << "{";
  if (!id.empty()) os << "\"id\":\"" << json_escape(id) << "\",";
  os << "\"op\":\"" << to_string(op) << "\",\"ok\":false,\"error\":\"" << code
     << "\",\"message\":\"" << json_escape(message) << "\"}";
  return os.str();
}

std::string params_json(const AsymptoticParams& p) {
  std::ostringstream os;
  os << "{\"workload\":\"" << workload_name(p.type)
     << "\",\"eta\":" << json_double(p.eta)
     << ",\"alpha\":" << json_double(p.alpha)
     << ",\"delta\":" << json_double(p.delta)
     << ",\"beta\":" << json_double(p.beta)
     << ",\"gamma\":" << json_double(p.gamma) << "}";
  return os.str();
}

std::string classification_json(const Classification& c) {
  std::ostringstream os;
  os << "{\"type\":\"" << to_string(c.type) << "\",\"shape\":\""
     << shape_name(c.shape) << "\",\"bound\":" << json_double(c.bound)
     << ",\"slope\":" << json_double(c.slope)
     << ",\"peak_n\":" << json_double(c.peak_n)
     << ",\"peak_speedup\":" << json_double(c.peak_speedup)
     << ",\"rationale\":\"" << json_escape(c.rationale) << "\"}";
  return os.str();
}

std::string fit_result_json(const FactorFits& fits) {
  std::ostringstream os;
  os << "{\"params\":" << params_json(fits.params) << ",\"epsilon_fit\":";
  append_power_fit(os, fits.epsilon_fit);
  os << ",\"q_fit\":";
  if (fits.q_fit.has_value()) {
    append_power_fit(os, *fits.q_fit);
  } else {
    os << "{\"absent\":\"" << to_string(fits.q_fit.error()) << "\"}";
  }
  os << ",\"in\":";
  if (fits.in_has_changepoint && fits.in_segmented.has_value()) {
    const auto& seg = *fits.in_segmented;
    os << "{\"kind\":\"segmented\",\"knot\":" << json_double(seg.knot)
       << ",\"left\":";
    append_linear_fit(os, seg.left);
    os << ",\"right\":";
    append_linear_fit(os, seg.right);
    os << "}";
  } else if (fits.in_linear.has_value()) {
    os << "{\"kind\":\"linear\",\"fit\":";
    append_linear_fit(os, *fits.in_linear);
    os << "}";
  } else {
    os << "{\"kind\":\"none\",\"reason\":\""
       << to_string(fits.in_linear.error()) << "\"}";
  }
  os << ",\"classification\":" << classification_json(classify(fits.params))
     << "}";
  return os.str();
}

std::string predict_result_json(const AsymptoticParams& p,
                                const stats::Series& curve) {
  std::ostringstream os;
  os << "{\"params\":" << params_json(p) << ",\"speedup\":{\"name\":\""
     << json_escape(curve.name()) << "\",\"points\":";
  append_series_points(os, curve);
  os << "}}";
  return os.str();
}

std::string recommend_result_json(const AsymptoticParams& p,
                                  const ProvisioningPlan& plan) {
  std::ostringstream os;
  os << "{\"params\":" << params_json(p)
     << ",\"plan\":{\"best_speedup_n\":" << json_double(plan.best_speedup_n)
     << ",\"best_value_n\":" << json_double(plan.best_value_n)
     << ",\"knee_n\":" << json_double(plan.knee_n) << ",\"options\":[";
  for (std::size_t i = 0; i < plan.options.size(); ++i) {
    if (i) os << ",";
    const auto& o = plan.options[i];
    os << "{\"n\":" << json_double(o.n)
       << ",\"speedup\":" << json_double(o.speedup)
       << ",\"cost\":" << json_double(o.cost)
       << ",\"efficiency\":" << json_double(o.efficiency)
       << ",\"value\":" << json_double(o.value) << "}";
  }
  os << "]}}";
  return os.str();
}

std::string diagnose_result_json(const DiagnosticReport& report) {
  std::ostringstream os;
  os << "{\"workload\":\"" << workload_name(report.workload)
     << "\",\"best_guess\":\"" << to_string(report.best_guess)
     << "\",\"shape\":\"" << shape_name(report.empirical.shape)
     << "\",\"tail_exponent\":" << json_double(report.empirical.tail_exponent)
     << ",\"monotone\":" << (report.empirical.monotone ? "true" : "false")
     << ",\"peaked\":" << (report.empirical.peaked ? "true" : "false");
  os << ",\"matched\":";
  if (report.matched.has_value()) {
    os << classification_json(*report.matched);
  } else {
    os << "{\"absent\":\"" << to_string(report.matched.error()) << "\"}";
  }
  os << ",\"summary\":\"" << json_escape(report.summary) << "\"}";
  return os.str();
}

std::string observe_result_json(const std::string& key,
                                const ObservationStore::ObserveResult& r) {
  std::ostringstream os;
  os << "{\"key\":\"" << json_escape(key) << "\",\"material\":"
     << (r.material ? "true" : "false")
     << ",\"absorbed\":" << (r.absorbed ? "true" : "false")
     << ",\"dropped\":" << (r.dropped ? "true" : "false")
     << ",\"version\":" << r.version << ",\"points\":" << r.window.size()
     << ",\"window\":";
  append_series_points(os, r.window);
  os << "}";
  return os.str();
}

std::string compare_result_json(const models::ZooResult& zoo,
                                const std::string& key,
                                const stats::Series& window) {
  std::ostringstream os;
  os << "{";
  if (!key.empty()) os << "\"key\":\"" << json_escape(key) << "\",";
  os << "\"observations\":";
  append_series_points(os, window);
  os << ",\"models\":[";
  for (std::size_t i = 0; i < zoo.scores.size(); ++i) {
    if (i) os << ",";
    const models::ModelScore& s = zoo.scores[i];
    os << "{\"model\":\"" << s.model << "\",\"ok\":"
       << (s.ok ? "true" : "false");
    if (!s.ok) {
      os << ",\"error\":\"" << json_escape(s.error) << "\"}";
      continue;
    }
    os << ",\"k\":" << s.param_count << ",\"params\":{";
    for (std::size_t j = 0; j < s.params.size(); ++j) {
      if (j) os << ",";
      os << "\"" << s.params[j].first
         << "\":" << json_double(s.params[j].second);
    }
    os << "},\"rss\":" << json_double(s.rss)
       << ",\"aic\":" << json_double(s.aic) << ",\"cv\":" << json_double(s.cv)
       << "}";
  }
  os << "],\"winner\":\"" << zoo.winner_name << "\"}";
  return os.str();
}

}  // namespace ipso::serve
