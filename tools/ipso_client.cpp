/// ipso_client: command-line client for ipso_serve. Builds one protocol
/// request from flags/CSV inputs, sends it, prints the server's response
/// line to stdout, and exits 0 iff the response says "ok":true.
///
/// Usage:
///   ipso_client <op> --port N [--host A] [flags]
///
/// where <op> is one of:
///   ping        liveness probe
///   stats       server counters
///   fit         fit factor observations (--factors CSV)
///   classify    classify fitted/explicit params
///   predict     predict S(n) over a grid
///   recommend   provisioning plan (n*, knee)
///   diagnose    diagnose a measured speedup curve (--speedup CSV)
///   observe     stream one speedup point into a server-side window
///               (--key K --n N --value S)
///   compare     model-zoo scoreboard over a server window (--key K) or
///               an inline curve (--speedup CSV)
///   raw         read request lines from stdin, round-trip each
///
/// CSV inputs:
///   --factors FILE   columns n,EX,IN,q (header row; IN/q optional)
///   --speedup FILE   two columns n,S(n)
///
/// Wire mode: --proto json (default, newline-delimited) or --proto binary
/// (length-prefixed batched frames). In 'raw' mode --pipeline N keeps up
/// to N requests on the wire before the first response is read.
///
/// Malformed flag values are a refusal to run (exit 1 with the flag named
/// on stderr), not a silent fall-through to defaults — the same strict
/// policy as ipso_serve and ipso_router.

#include "serve/client.h"
#include "trace/cli_opts.h"
#include "trace/csv.h"
#include "trace/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace {

using ipso::stats::Series;

const char kUsage[] =
    "ipso_client: CLI client for the ipso_serve daemon\n"
    "\n"
    "usage: ipso_client <op> --port N [flags]\n"
    "\n"
    "ops: ping stats fit classify predict recommend diagnose observe\n"
    "     compare raw\n"
    "\n"
    "flags:\n"
    "  --host A          server address (default 127.0.0.1)\n"
    "  --port N          server port (required)\n"
    "  --id S            request id, echoed back in the response\n"
    "  --workload W      fixed-time | fixed-size | memory-bounded\n"
    "                    (default fixed-time)\n"
    "  --eta F           parallelizable fraction at n = 1 (default 1.0)\n"
    "  --factors FILE    factor observations CSV: columns n,EX[,IN[,q]]\n"
    "  --speedup FILE    measured speedup CSV: columns n,S(n)\n"
    "                    (diagnose; inline curve for compare)\n"
    "  --key K           observation-window key (observe; keyed compare)\n"
    "  --n N             node count of the observed point (observe)\n"
    "  --value S         measured speedup of the observed point (observe)\n"
    "  --ns LIST         comma-separated prediction grid, e.g. 1,2,4,8\n"
    "  --knee-frac F     recommend knee threshold (default 0.9)\n"
    "  --deadline-ms D   per-request deadline\n"
    "  --proto P         wire mode: json (default) or binary\n"
    "  --pipeline N      raw mode: requests in flight before the first\n"
    "                    read (default 1)\n"
    "  --help, -h        this text\n"
    "  --version         build-info string\n"
    "\n"
    "'raw' reads newline-delimited JSON requests from stdin and prints one\n"
    "response line per request (exit 1 if any response has \"ok\":false).\n";

constexpr const char* kProgram = "ipso_client";

/// Strict string flag with an empty fallback; "" means "absent".
std::string string_flag(int argc, char** argv, const char* flag,
                        std::string fallback = "") {
  return ipso::trace::flag_or_die(
      kProgram, ipso::trace::string_flag_from_args(argc, argv, flag,
                                                   std::move(fallback)));
}

/// Strict double flag; NaN means "absent" (the parser range-checks present
/// values only, so the NaN fallback passes through untouched).
double double_flag(int argc, char** argv, const char* flag, double min_value,
                   double max_value) {
  return ipso::trace::flag_or_die(
      kProgram, ipso::trace::double_flag_from_args(
                    argc, argv, flag, std::numeric_limits<double>::quiet_NaN(),
                    min_value, max_value));
}

/// "[[x,y],...]" with max_digits10 doubles, so resubmitting the same CSV
/// produces the same request bytes (and hits the server's fit cache).
std::string series_json(const Series& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) out += ",";
    out += "[";
    out += ipso::trace::json_double(s[i].x);
    out += ",";
    out += ipso::trace::json_double(s[i].y);
    out += "]";
  }
  out += "]";
  return out;
}

/// Loads the factor CSV and appends "ex"/"in"/"q" request fields. Columns
/// are matched by header name (case-insensitive EX/IN/q), falling back to
/// positional order n,EX,IN,q when headers are absent.
bool append_factor_fields(const std::string& path, std::string& req) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "ipso_client: cannot open '%s'\n", path.c_str());
    return false;
  }
  auto table = ipso::trace::read_table_csv(file);
  if (!table) {
    std::fprintf(stderr, "ipso_client: %s: %s\n", path.c_str(),
                 table->empty() ? "empty table"
                                : table.error().message().c_str());
    return false;
  }
  const Series* ex = nullptr;
  const Series* in = nullptr;
  const Series* q = nullptr;
  for (const Series& s : *table) {
    std::string lower = s.name();
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == "ex" || lower.rfind("ex", 0) == 0) {
      if (!ex) ex = &s;
    } else if (lower == "in" || lower.rfind("in", 0) == 0) {
      if (!in) in = &s;
    } else if (lower == "q" || lower.rfind("q", 0) == 0) {
      if (!q) q = &s;
    }
  }
  // Headerless CSVs produce "col1","col2",... — fall back to position.
  if (!ex && !table->empty()) ex = &(*table)[0];
  if (!in && table->size() > 1 && &(*table)[1] != ex) in = &(*table)[1];
  if (!q && table->size() > 2 && &(*table)[2] != ex && &(*table)[2] != in) {
    q = &(*table)[2];
  }
  if (!ex || ex->empty()) {
    std::fprintf(stderr, "ipso_client: %s: no EX(n) column found\n",
                 path.c_str());
    return false;
  }
  req += ",\"ex\":" + series_json(*ex);
  if (in && !in->empty()) req += ",\"in\":" + series_json(*in);
  if (q && !q->empty()) req += ",\"q\":" + series_json(*q);
  return true;
}

/// Loads the two-column speedup CSV and appends it under `field` —
/// "speedup" for diagnose, "observations" for an inline compare.
bool append_speedup_field(const std::string& path, const char* field,
                          std::string& req) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "ipso_client: cannot open '%s'\n", path.c_str());
    return false;
  }
  auto series = ipso::trace::read_series_csv(file, "S(n)");
  if (!series) {
    std::fprintf(stderr, "ipso_client: %s: %s\n", path.c_str(),
                 series.error().message().c_str());
    return false;
  }
  req += ",\"" + std::string(field) + "\":" + series_json(*series);
  return true;
}

/// One round trip; prints the response, returns true iff "ok":true.
bool roundtrip_and_print(ipso::serve::Client& client,
                         const std::string& request) {
  auto response = client.call(request);
  if (!response) {
    std::fprintf(stderr, "ipso_client: %s\n",
                 response.error().message.c_str());
    return false;
  }
  std::printf("%s\n", response->c_str());
  return response->find("\"ok\":true") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ipso;

  if (trace::has_flag(argc, argv, "--help") ||
      trace::has_flag(argc, argv, "-h") || argc < 2) {
    std::fputs(kUsage, stdout);
    return argc < 2 ? 1 : 0;
  }
  if (trace::has_flag(argc, argv, "--version")) {
    std::printf("%s\n", trace::version_string().c_str());
    return 0;
  }

  const std::string op = argv[1];
  const bool known_op = op == "ping" || op == "stats" || op == "fit" ||
                        op == "classify" || op == "predict" ||
                        op == "recommend" || op == "diagnose" ||
                        op == "observe" || op == "compare" || op == "raw";
  if (!known_op) {
    std::fprintf(stderr, "ipso_client: unknown op '%s' (try --help)\n",
                 op.c_str());
    return 1;
  }

  const std::string host = string_flag(argc, argv, "--host", "127.0.0.1");
  const std::size_t port = trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--port", 0, 0, 65535));
  if (port == 0) {
    std::fprintf(stderr, "ipso_client: --port is required\n");
    return 1;
  }

  const std::string proto_text = string_flag(argc, argv, "--proto", "json");
  if (proto_text != "json" && proto_text != "binary") {
    std::fprintf(stderr,
                 "ipso_client: --proto must be json or binary, got '%s'\n",
                 proto_text.c_str());
    return 1;
  }
  const serve::Proto proto =
      proto_text == "binary" ? serve::Proto::kBinary : serve::Proto::kJson;
  const std::size_t pipeline = trace::flag_or_die(
      kProgram,
      trace::size_flag_from_args(argc, argv, "--pipeline", 1, 1, 65536));

  serve::Client client(proto);
  if (auto connected =
          client.connect(host, static_cast<std::uint16_t>(port));
      !connected) {
    std::fprintf(stderr, "ipso_client: %s\n",
                 connected.error().message.c_str());
    return 1;
  }

  if (op == "raw") {
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    bool all_ok = true;
    // Pipelining window: put up to `pipeline` requests on the wire (one
    // frame each in binary mode), then collect their responses in order.
    for (std::size_t i = 0; i < lines.size(); i += pipeline) {
      const std::size_t end = std::min(lines.size(), i + pipeline);
      for (std::size_t j = i; j < end; ++j) {
        if (auto sent = client.send_batch({lines[j]}); !sent) {
          std::fprintf(stderr, "ipso_client: %s\n",
                       sent.error().message.c_str());
          return 1;
        }
      }
      for (std::size_t j = i; j < end; ++j) {
        auto batch = client.recv_batch(1);
        if (!batch) {
          std::fprintf(stderr, "ipso_client: %s\n",
                       batch.error().message.c_str());
          return 1;
        }
        for (const std::string& response : *batch) {
          std::printf("%s\n", response.c_str());
          all_ok = response.find("\"ok\":true") != std::string::npos &&
                   all_ok;
        }
      }
    }
    return all_ok ? 0 : 1;
  }

  std::string req = "{\"op\":\"" + op + "\"";
  if (const std::string id = string_flag(argc, argv, "--id"); !id.empty())
    req += ",\"id\":\"" + trace::json_escape(id) + "\"";
  if (const std::string w = string_flag(argc, argv, "--workload");
      !w.empty()) {
    req += ",\"workload\":\"" + trace::json_escape(w) + "\"";
  }
  if (const std::string key = string_flag(argc, argv, "--key");
      !key.empty()) {
    req += ",\"key\":\"" + trace::json_escape(key) + "\"";
  }
  if (const double eta = double_flag(argc, argv, "--eta", 1e-12, 1.0);
      !std::isnan(eta)) {
    req += ",\"eta\":" + trace::json_double(eta);
  }
  if (const double n = double_flag(argc, argv, "--n", 1.0, 1e12);
      !std::isnan(n)) {
    req += ",\"n\":" + trace::json_double(n);
  }
  if (const double v = double_flag(argc, argv, "--value", 1e-12, 1e12);
      !std::isnan(v)) {
    req += ",\"value\":" + trace::json_double(v);
  }
  if (const std::string factors = string_flag(argc, argv, "--factors");
      !factors.empty()) {
    if (!append_factor_fields(factors, req)) return 1;
  }
  if (const std::string speedup = string_flag(argc, argv, "--speedup");
      !speedup.empty()) {
    // The same CSV feeds diagnose (as the curve to diagnose) and compare
    // (as the inline observation set the zoo scores).
    const char* field = op == "compare" ? "observations" : "speedup";
    if (!append_speedup_field(speedup, field, req)) return 1;
  }
  if (const std::string ns = string_flag(argc, argv, "--ns"); !ns.empty()) {
    req += ",\"ns\":[";
    std::istringstream is(ns);
    std::string tok;
    bool first = true;
    while (std::getline(is, tok, ',')) {
      if (tok.empty()) continue;
      double grid_n = 0.0;
      std::istringstream ts(tok);
      if (!(ts >> grid_n) || !(ts >> std::ws).eof() || !(grid_n >= 1.0)) {
        std::fprintf(stderr,
                     "ipso_client: --ns: expected a node count >= 1, got "
                     "'%s'\n",
                     tok.c_str());
        return 1;
      }
      if (!first) req += ",";
      first = false;
      req += trace::json_double(grid_n);
    }
    req += "]";
  }
  if (const double knee = double_flag(argc, argv, "--knee-frac", 1e-12, 1.0);
      !std::isnan(knee)) {
    req += ",\"knee_frac\":" + trace::json_double(knee);
  }
  if (const double dl =
          double_flag(argc, argv, "--deadline-ms", 0.0, 1e9);
      !std::isnan(dl)) {
    req += ",\"deadline_ms\":" + trace::json_double(dl);
  }
  req += "}";

  return roundtrip_and_print(client, req) ? 0 : 1;
}
