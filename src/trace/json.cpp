#include "trace/json.h"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>

namespace ipso::trace {

std::string json_double(double v) {
  // JSON has no literal for non-finite numbers; null is the conventional
  // spelling (and what the parser on the other end round-trips to).
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void append_series(std::ostringstream& os, const stats::Series& s) {
  os << "{\"name\":\"" << json_escape(s.name()) << "\",\"points\":[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ",";
    os << "[" << s[i].x << "," << s[i].y << "]";
  }
  os << "]}";
}

void append_components(std::ostringstream& os, const WorkloadComponents& c) {
  os << "{\"n\":" << c.n << ",\"wp\":" << c.wp << ",\"ws\":" << c.ws
     << ",\"wo\":" << c.wo << ",\"max_tp\":" << c.max_tp << "}";
}

/// Full round-trip precision: setprecision(12) used to truncate doubles, so
/// parse(serialize(x)) drifted from x (satellite fix, ISSUE 4).
std::ostringstream exact_stream() {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  return os;
}

}  // namespace

std::string to_json(const stats::Series& series) {
  std::ostringstream os = exact_stream();
  append_series(os, series);
  return os.str();
}

std::string to_json(const MrSweepResult& result) {
  std::ostringstream os = exact_stream();
  os << "{\"kind\":\"mr_sweep\",\"eta\":" << result.factors.eta
     << ",\"tp1\":" << result.tp1 << ",\"ts1\":" << result.ts1
     << ",\"speedup\":";
  append_series(os, result.speedup);
  os << ",\"ex\":";
  append_series(os, result.factors.ex);
  os << ",\"in\":";
  append_series(os, result.factors.in);
  os << ",\"q\":";
  append_series(os, result.factors.q);
  os << ",\"points\":[";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (i) os << ",";
    const auto& p = result.points[i];
    os << "{\"n\":" << p.n << ",\"parallel_time\":" << p.parallel_time
       << ",\"sequential_time\":" << p.sequential_time
       << ",\"speedup\":" << p.speedup
       << ",\"spilled\":" << (p.spilled ? "true" : "false")
       << ",\"components\":";
    append_components(os, p.components);
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string to_json(const SparkSweepResult& result) {
  std::ostringstream os = exact_stream();
  os << "{\"kind\":\"spark_sweep\",\"eta\":" << result.factors.eta
     << ",\"tp1\":" << result.tp1 << ",\"ts1\":" << result.ts1
     << ",\"speedup\":";
  append_series(os, result.speedup);
  os << ",\"q\":";
  append_series(os, result.factors.q);
  os << ",\"points\":[";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (i) os << ",";
    const auto& p = result.points[i];
    os << "{\"m\":" << p.m << ",\"total_tasks\":" << p.total_tasks
       << ",\"parallel_time\":" << p.parallel_time
       << ",\"sequential_time\":" << p.sequential_time
       << ",\"speedup\":" << p.speedup
       << ",\"spilled\":" << (p.spilled ? "true" : "false")
       << ",\"components\":";
    append_components(os, p.components);
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ipso::trace
