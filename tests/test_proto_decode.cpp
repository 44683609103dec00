// Differential decode test for serve::parse_request.
//
// A seeded corpus of request lines (every op's valid request, structured
// edge cases, and random mutations) is decoded, and each outcome -- the
// error text, or every Request field with doubles as bit patterns -- is
// compared with tests/data/proto_decode_outcomes.txt. That file was
// recorded once and is never edited: any change to what a request line
// decodes to, including error text, offsets and error precedence, fails
// here. On a mismatch the full actual outcome file is written to the
// working directory as proto_decode_outcomes.actual.

#include "serve/proto.h"
#include "stats/random.h"
#include "trace/json.h"
#include "workloads/sort.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ipso::serve {
namespace {

/// Printable ASCII passes through; '\\' and every other byte become \xHH,
/// so each input and outcome is one line of plain text.
std::string escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\') {
      out.push_back(c);
    } else {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

std::string bits(double v) {
  char buf[17];
  std::snprintf(
      buf, sizeof buf, "%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

std::string series_text(const stats::Series& s) {
  std::string out = escape(s.name()) + "[";
  for (const auto& p : s.points()) out += bits(p.x) + "," + bits(p.y) + ";";
  return out + "]";
}

/// Every Request field as (name, text), doubles as bit patterns.
std::vector<std::pair<const char*, std::string>> fields(const Request& r) {
  std::string params = "none";
  if (r.params) {
    params = std::to_string(static_cast<int>(r.params->type)) + "," +
             bits(r.params->eta) + "," + bits(r.params->alpha) + "," +
             bits(r.params->delta) + "," + bits(r.params->beta) + "," +
             bits(r.params->gamma);
  }
  std::string ns;
  for (const double n : r.ns) ns += bits(n) + ";";
  return {{"op", std::string(to_string(r.op))},
          {"id", escape(r.id)},
          {"workload", std::to_string(static_cast<int>(r.workload))},
          {"eta", bits(r.eta)},
          {"ex", series_text(r.ex)},
          {"in", series_text(r.in)},
          {"q", series_text(r.q)},
          {"speedup", series_text(r.speedup)},
          {"params", params},
          {"ns", ns},
          {"knee_frac", bits(r.knee_frac)},
          {"key", escape(r.workload_key)},
          {"n", bits(r.observe_n)},
          {"value", bits(r.observe_value)},
          {"observations", series_text(r.observations)},
          {"deadline_ms", bits(r.deadline_ms)}};
}

/// The error text, or every Request field that differs from a
/// default-constructed Request (the rest are pinned by their absence).
std::string outcome(const std::string& line) {
  const auto parsed = parse_request(line);
  if (!parsed) return "error " + escape(parsed.error());
  const auto defaults = fields(Request{});
  const auto decoded = fields(*parsed);
  std::string out = "ok";
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (decoded[i].second == defaults[i].second) continue;
    out += std::string(" ") + decoded[i].first + "=" + decoded[i].second;
  }
  return out;
}

/// FNV-1a 64 of one input: pins the corpus in the outcome file compactly.
std::string input_hash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return bits(std::bit_cast<double>(h));
}

/// One valid request per op (two shapes for predict and compare).
const std::vector<std::string>& valid_requests() {
  static const std::vector<std::string> kValid = {
      R"({"op":"ping"})",
      R"({"op":"stats","id":"s1"})",
      R"({"op":"fit","id":"f1","workload":"fixed-time","eta":0.99,)"
      R"("ex":[[1,100.5],[2,50.5],[4,25.5]],"in":[[1,1.45],[2,2.5],[4,4.6]],)"
      R"("q":[[1,1],[2,1.5],[4,2]],"deadline_ms":500})",
      R"({"op":"predict","id":7,"workload":"fixed-size","params":)"
      R"({"workload":"fixed-size","eta":0.9,"alpha":1.2,"delta":0.5,)"
      R"("beta":0.01,"gamma":0.2},"ns":[1,2,4,8]})",
      R"({"op":"predict","workload":"memory-bounded","eta":0.8,)"
      R"("ex":[[1,10],[2,5.5]],"in":[[1,1],[2,2.25]],"ns":[1,16,256]})",
      R"({"op":"classify","params":{"eta":0.5,"alpha":2,"delta":0,)"
      R"("beta":0,"gamma":0}})",
      R"({"op":"diagnose","speedup":[[1,1],[2,1.9],[4,3.5],[8,6.1]],)"
      R"("ex":[[1,10],[2,5]]})",
      R"({"op":"recommend","workload":"fixed-time","params":{"workload":)"
      R"("fixed-time","eta":0.95,"alpha":1,"delta":1,"beta":0.1,)"
      R"("gamma":0.5},"knee_frac":0.8})",
      R"({"op":"observe","key":"etl-hourly","n":8,"value":5.2,"id":"o1"})",
      R"({"op":"compare","key":"etl-hourly"})",
      R"({"op":"compare","observations":[[1,1],[2,1.8],[4,3.1]],)"
      R"("deadline_ms":0})",
  };
  return kValid;
}

const std::vector<std::string> kTopKeys = {
    "op", "id", "workload", "eta", "ex", "in", "q", "speedup", "params",
    "ns", "key", "n", "value", "observations", "knee_frac", "deadline_ms"};

const std::vector<std::string> kParamsKeys = {"workload", "eta",  "alpha",
                                              "delta",    "beta", "gamma"};

/// Values of every kind, including the shapes the grammar asks for.
const std::vector<std::string> kValues = {
    R"("x")",         R"("")",          R"("fixed-size")", R"("ping")",
    "5",              "0.5",            "-1",              "0",
    "true",           "false",          "null",            "[]",
    "{}",             "[1,2]",          "[[1,2]]",         "[[1,2],[3,4]]",
    R"([[1,"a"]])",   "[[1,2,3]]",      "[[1]]",           "[[]]",
    "[1,[2,3]]",      R"({"eta":"x"})", R"({"eta":0.5})",  "[[1,0.5],[2,1]]",
};

/// Numbers covering strtod's accepted forms, its range edges, and tokens
/// that only look numeric.
const std::vector<std::string> kNumbers = {
    "+1", "-0", "1.", ".5", "01", "1e-400", "-1e-400", "4.9e-324",
    "2.4703282292062327e-324", "1e309", "1e", "0x1p3",
    "-1", "0", "1", "2", "0.9", "1e308", "1.7976931348623157e308",
    "1.7976931348623159e308", "-1e309", "2.2250738585072014e-308",
    "1E5", "1e+5", "1e-5", "-.5", ".", "-", "+", "e5", "E", "1e5e5",
    "1.2.3", "--1", "+-1", "1-2", "1e+-5", "00.5", "0.1e-0",
    "123456789012345678901234567890", "0.30000000000000004", "inf", "nan",
    "-inf", "Infinity", "NaN", "1_0", "1 2", "+.5e1", "-0.0", "5e-324",
    "1e-320", "0e999", "0.0e-999", "1e0000000000000000000001"};

std::vector<std::string> corpus() {
  std::vector<std::string> out = valid_requests();

  // Whole-line shapes and syntax errors.
  for (const char* s :
       {"", " ", "\t\r\n", "{}", "[]", "null", "true", R"("op")", "123",
        "{}{}", "{} ", " \t\r\n{\"op\":\"ping\"}\r\n", R"({"op":"ping"} x)",
        R"({"op" "ping"})", R"({op:"ping"})", R"({"op":"ping",})", "{,}",
        R"({"op":"ping")", R"({"op":"ping"])", R"({"op":"ping" , })",
        "[1,]", "[1 2]", "[1", "tru", "nul", "fals", R"({"op":tru})",
        R"({"op":"ping","x":nulll})", R"({"k":})", R"({"k" 1})",
        R"({"k":1} trailing)", "\"unterminated", "01x", "1e999", "[1,2,3]",
        R"([{"op":"ping"}])", R"({"op":"ping","x":[1,{"a":}]})",
        R"({"op":"ping","x":[1,{"a":1]})", R"({"op":"ping","x":{"a" 1}})",
        R"({"op":"ping","x":[,]})", R"({"op":"ping","x":{"a":1,}})",
        R"({"op":"ping","x":{1:2}})", R"({"op":"ping","x":'a'})",
        "{\"op\":\"ping\",\"x\":\"a\x01\x7f\xff\"}", R"({"op":"ping"}})",
        R"({"op":"ping"}])", R"({ "op" : "ping" , "id" : "a" })",
        R"({"op":"ping","ex":[[1,2]] ,"in" :[ [ 1 , 2 ] ] })",
        R"({"op":"fit","ex":[[1,2],]})", R"({"op":"fit","ex":[[1,2]x]})",
        R"({"op":"fit","ex":[[1 2]]})", R"({"op":"fit","ex":[[1,2]})"}) {
    out.emplace_back(s);
  }

  // Numbers in every numeric position, plus seeded random doubles and
  // random tokens over the number alphabet.
  std::vector<std::string> numbers = kNumbers;
  stats::Rng rng(0x1d5b'dec0'de00'0001ULL);
  for (int i = 0; i < 24; ++i) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(v)) continue;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    numbers.emplace_back(buf);
  }
  for (int i = 0; i < 40; ++i) {
    static constexpr std::string_view kAlphabet = "0123456789.eE+-";
    std::string token;
    const std::size_t len = 1 + rng.uniform_below(8);
    for (std::size_t j = 0; j < len; ++j) {
      token.push_back(kAlphabet[rng.uniform_below(kAlphabet.size())]);
    }
    numbers.push_back(token);
  }
  for (const std::string& n : numbers) {
    out.push_back(R"({"op":"observe","key":"k","n":)" + n + R"(,"value":)" +
                  n + "}");
    out.push_back(R"({"op":"ping","id":)" + n + "}");
    out.push_back(R"({"op":"ping","eta":)" + n + R"(,"knee_frac":)" + n + "}");
    out.push_back(R"({"op":"ping","deadline_ms":)" + n + "}");
    out.push_back(R"({"op":"fit","ex":[[)" + n + "," + n + "]]}");
    out.push_back(R"({"op":"predict","ns":[)" + n + R"(],"params":{"eta":)" +
                  n + R"(,"alpha":)" + n + R"(,"gamma":)" + n + "}}");
    out.push_back(R"({"op":"compare","observations":[[1,1],[)" + n + "," + n +
                  "]]}");
  }

  // Every top-level and params key with a value of every kind, alone (ping
  // passes the per-op checks) and on a fit request (they run after).
  for (const std::string& key : kTopKeys) {
    for (const std::string& v : kValues) {
      out.push_back(R"({"op":"ping",")" + key + "\":" + v + "}");
      out.push_back(R"({"op":"fit","ex":[[1,2]],")" + key + "\":" + v + "}");
    }
  }
  for (const std::string& key : kParamsKeys) {
    for (const std::string& v : kValues) {
      out.push_back(R"({"op":"classify","params":{")" + key + "\":" + v +
                    "}}");
    }
  }

  // Duplicate keys: the last occurrence wins, at the top level and in
  // params, including when an earlier or later duplicate is malformed.
  for (const std::string& key : kTopKeys) {
    for (std::size_t i = 0; i + 1 < kValues.size(); i += 3) {
      const std::string& a = kValues[i];
      const std::string& b = kValues[(i * 7 + 5) % kValues.size()];
      out.push_back(R"({"op":"ping",")" + key + "\":" + a + ",\"" + key +
                    "\":" + b + "}");
    }
  }
  for (const std::string& key : kParamsKeys) {
    out.push_back(R"({"op":"classify","params":{")" + key + R"(":0.5,")" +
                  key + R"(":"x"}})");
    out.push_back(R"({"op":"classify","params":{")" + key + R"(":"x",")" +
                  key + R"(":0.5}})");
  }
  for (const char* s :
       {R"({"op":"bogus","op":"ping"})", R"({"op":"ping","op":"bogus"})",
        R"({"op":"ping","op":5})", R"({"op":5,"op":"ping"})",
        R"({"op":"fit","ex":[[1,2]],"ex":[]})",
        R"({"op":"fit","ex":"x","ex":[[1,2]]})",
        R"({"op":"fit","ex":[[1,2]],"ex":[[3,4],[5,6]]})",
        R"({"op":"classify","params":{"eta":0.5},"params":{"alpha":2}})",
        R"({"op":"classify","params":{"eta":0.5},"params":5})",
        R"({"op":"ping","params":5,"params":{"eta":0.5}})",
        R"({"op":"classify","workload":"fixed-size","params":{"eta":0.5},)"
        R"("workload":"memory-bounded"})",
        R"({"op":"classify","params":{"eta":0.5,"workload":"bogus",)"
        R"("workload":"fixed-size"}})",
        R"({"op":"ping","ns":[1,2],"ns":[4]})",
        R"({"op":"ping","key":"a","key":"b","id":"x","id":"y"})"}) {
    out.emplace_back(s);
  }

  // Unknown keys, nested duplicates, and field precedence.
  for (const char* s :
       {R"({"zz":{"a":[1,{"b":null,"c":"\u0041"}],"a":true},"op":"ping"})",
        R"({"op":"ping","params":{"zz":{"eta":0.1},"eta":0.5}})",
        R"({"op":"classify","params":{"zz":[1,2],"eta":0.5,"zz":{}}})",
        R"({"op":"ping","ex":[[1,2]],"unknown":[[[[]]]],"in":[[1,2]]})",
        R"({"op":"bogus","eta":7})", R"({"eta":7})", R"({"id":[],"op":"x"})",
        R"({"op":"ping","id":[],"workload":"bogus"})",
        R"({"op":"ping","workload":"bogus","eta":7})",
        R"({"op":"ping","eta":7,"ex":"x"})",
        R"({"op":"ping","ex":"x","in":"x"})",
        R"({"op":"ping","speedup":"x","params":5})",
        R"({"op":"ping","params":{"eta":7},"ns":[0]})",
        R"({"op":"ping","ns":[0],"key":5})", R"({"op":"ping","key":5,"n":0})",
        R"({"op":"ping","n":0,"value":0})",
        R"({"op":"ping","value":0,"observations":[[0,1]]})",
        R"({"op":"ping","observations":[[0,1]],"knee_frac":2})",
        R"({"op":"ping","knee_frac":2,"deadline_ms":-1})",
        R"({"op":"ping","params":{"workload":"bogus","eta":7}})",
        R"({"op":"ping","params":{"eta":7,"alpha":0}})",
        R"({"op":"ping","params":{"alpha":0,"delta":2}})",
        R"({"op":"ping","params":{"delta":2,"beta":-1}})",
        R"({"op":"ping","params":{"beta":-1,"gamma":-1}})",
        R"({"op":"fit"})", R"({"op":"predict"})", R"({"op":"classify"})",
        R"({"op":"recommend"})", R"({"op":"diagnose","speedup":[[1,1]]})",
        R"({"op":"observe"})", R"({"op":"observe","key":"k"})",
        R"({"op":"observe","key":"k","n":2})", R"({"op":"compare"})",
        R"({"op":"compare","key":"k","observations":[[1,1],[2,2]]})",
        R"({"op":"compare","observations":[[1,1]]})",
        R"({"op":"predict","params":{},"ns":[]})",
        R"({"op":"fit","ex":[],"in":[[1,2]]})"}) {
    out.emplace_back(s);
  }

  // String escapes: decoded keys and values, UTF-8 output, and every
  // escape error.
  for (const char* s :
       {R"({"\u006fp":"\u0066it","\u0065x":[[1,2]]})",
        R"({"op":"ping","id":"\u0041\u00e9\u4e2d\ud83d\u0000\u001f\u07FF"})",
        R"({"op":"ping","id":"\"\\\/\b\f\n\r\t"})",
        R"({"op":"ping","workload":"fixed\u002dtime"})",
        R"({"op":"ping","workload":"fixed-\u0073ize"})",
        R"({"op":"ping","key":"a\"b"})", R"({"op":"\u0070ing"})",
        R"({"op":"ping\u0021"})",
        R"({"op":"ping","id":"\x"})", R"({"op":"ping","id":"\u12"})",
        R"({"op":"ping","id":"\u12g4"})", R"({"op":"ping","id":"\uZZZZ"})",
        R"({"op":"ping","id":"\u")", R"({"op":"ping","id":"\)",
        R"({"op":"ping","id":"abc)", R"({"op":"ping","\u":1})",
        R"({"op":"ping","k\q":1})", R"({"op":"ping","id":"\U0041"})",
        R"({"op":"ping","p\u0061rams":{"e\u0074a":0.5}})",
        R"({"op":"classify","params":{"\u0065ta":0.5,"eta\u0000":7}})",
        "{\"op\":\"ping\",\"id\":\"tab\there\"}",
        "{\"op\":\"ping\",\"id\":\"nl\nhere\"}",
        R"({"op":"bogus\u00ff"})",
        R"({"op":"ping","workload":"\u00e9"})", R"({"op":"ping","id":"é"})"}) {
    out.emplace_back(s);
  }

  // Nesting around the 64-level bound: at the root, under an unknown key,
  // inside a series, inside params, with objects, and with whitespace
  // before the value that crosses the bound.
  for (int depth = 62; depth <= 66; ++depth) {
    const auto arrays = [depth](std::string_view sep) {
      std::string s;
      for (int i = 0; i < depth; ++i) {
        s += "[";
        s += sep;
      }
      s += "1";
      for (int i = 0; i < depth; ++i) s += "]";
      return s;
    };
    std::string objects;
    for (int i = 0; i < depth; ++i) objects += R"({"a":)";
    objects += "1";
    for (int i = 0; i < depth; ++i) objects += "}";
    out.push_back(arrays(""));
    out.push_back(arrays(" "));
    out.push_back(R"({"op":"ping","deep":)" + arrays("") + "}");
    out.push_back(R"({"op":"ping","deep": )" + arrays(" ") + "}");
    out.push_back(R"({"op":"ping","deep":)" + objects + "}");
    out.push_back(R"({"op":"fit","ex":)" + arrays("") + "}");
    out.push_back(R"({"op":"classify","params":{"deep":)" + objects + "}}");
    out.push_back(R"({"op":"bogus","deep":)" + objects + "}");
  }

  // Seeded random mutations of the valid requests: bit flips, truncation,
  // splices, byte insertions and deletions.
  const auto& valid = valid_requests();
  static constexpr std::string_view kInsert = "{}[]\",:\\ 0123456789.eE+-tfnu";
  for (int round = 0; round < 40; ++round) {
    for (const std::string& base : valid) {
      std::string m = base;
      switch (rng.uniform_below(5)) {
        case 0: {
          const std::size_t flips = 1 + rng.uniform_below(3);
          for (std::size_t f = 0; f < flips; ++f) {
            const int bit = 1 << rng.uniform_below(8);
            char& c = m[rng.uniform_below(m.size())];
            c = static_cast<char>(c ^ bit);
          }
          break;
        }
        case 1: m.resize(rng.uniform_below(m.size())); break;
        case 2: {
          const std::string& other = valid[rng.uniform_below(valid.size())];
          m = m.substr(0, rng.uniform_below(m.size())) +
              other.substr(rng.uniform_below(other.size()));
          break;
        }
        case 3:
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(
                                   rng.uniform_below(m.size() + 1)),
                   kInsert[rng.uniform_below(kInsert.size())]);
          break;
        default: {
          const std::size_t at = rng.uniform_below(m.size());
          m.erase(at, 1 + rng.uniform_below(4));
          break;
        }
      }
      out.push_back(m);
    }
  }
  return out;
}

TEST(ProtoDecode, MatchesRecordedOutcomes) {
  const std::vector<std::string> inputs = corpus();
  std::vector<std::string> actual;
  actual.reserve(inputs.size());
  for (const std::string& in : inputs) {
    actual.push_back(input_hash(in) + " " + outcome(in));
  }

  std::vector<std::string> recorded;
  std::ifstream file(IPSO_TEST_DATA_DIR "/proto_decode_outcomes.txt");
  for (std::string line; std::getline(file, line);) recorded.push_back(line);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string expected = i < recorded.size() ? recorded[i] : "";
    if (actual[i] == expected) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "input #" << i << ": " << escape(inputs[i])
                    << "\n  recorded: " << expected
                    << "\n  actual:   " << actual[i];
    }
  }
  EXPECT_EQ(recorded.size(), inputs.size());
  EXPECT_EQ(mismatches, 0u);
  if (mismatches != 0 || recorded.size() != inputs.size()) {
    std::ofstream dump("proto_decode_outcomes.actual");
    for (const std::string& line : actual) dump << line << "\n";
  }
}

// A number token reads as strtod reads it: every token of up to four
// characters over the number alphabet (and five over a smaller one, to
// reach overflow) that the reader takes whole, as an "id".
TEST(ProtoDecode, NumberTokensReadAsStrtodDoes) {
  const std::string prefix = R"({"op":"ping","id":)";
  std::size_t checked = 0;
  const auto check = [&](const std::string& token) {
    for (std::size_t i = 1; i < token.size(); ++i) {
      const bool sign = token[i] == '+' || token[i] == '-';
      if (sign && token[i - 1] != 'e' && token[i - 1] != 'E') return;
    }
    ++checked;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    const auto parsed = parse_request(prefix + token + "}");
    const std::string at = " at offset " + std::to_string(prefix.size());
    if (end != token.c_str() + token.size()) {
      ASSERT_FALSE(parsed.has_value()) << token;
      EXPECT_EQ(parsed.error(), "malformed number" + at) << token;
    } else if (!std::isfinite(v)) {
      ASSERT_FALSE(parsed.has_value()) << token;
      EXPECT_EQ(parsed.error(), "number out of double range" + at) << token;
    } else {
      ASSERT_TRUE(parsed.has_value()) << token << ": " << parsed.error();
      EXPECT_EQ(parsed->id, trace::json_double(v)) << token;
    }
  };
  const auto enumerate = [&](std::string_view alphabet, std::size_t max_len) {
    std::vector<std::string> level = {""};
    for (std::size_t len = 1; len <= max_len; ++len) {
      std::vector<std::string> next;
      for (const std::string& stem : level) {
        for (const char c : alphabet) next.push_back(stem + c);
      }
      for (const std::string& token : next) check(token);
      level = std::move(next);
    }
  };
  enumerate("0123456789.eE+-", 4);
  enumerate("09.e-", 5);
  EXPECT_GT(checked, 20000u);
  // Range edges, where the underflow and overflow mapping decides.
  for (const char* token :
       {"1e-400", "-1e-400", "+1e-400", "4.9e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "-2.4703282292062328e-324", "0.0001e-321",
        "12345e-330", "-0.00e-999999", "1e-99999999999999999999",
        "1e99999999999999999999", "1.7976931348623157e308",
        "1.7976931348623158e308", "1.7976931348623159e308", "1e309",
        "-1e309", "0.01e311", "-100e307", "123456789e300",
        "1234567890e300", "100000000000000000000e-330",
        "1000000000000000000000000000e-350", "0.0000000000001e-311",
        "0000000000000000000001e-400", "0e999999", "-0e-999999"}) {
    check(token);
  }
}

// ------------------------------------- JSON syntax, through parse_request

// The writers' max_digits10 doubles decode bit-exactly: a series exported by
// trace::to_json comes back unchanged as a request's "ex" points.
TEST(JsonDouble, SeriesPointsSurviveRoundTrip) {
  stats::Series s("exact");
  s.add(1, 1.0 / 3.0);
  s.add(2, 0.1 + 0.2);  // != 0.3; the output must preserve the difference
  s.add(std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max());
  const std::string exported = trace::to_json(s);
  const std::size_t points = exported.find("[[");
  const std::string line =
      R"({"op":"fit","ex":)" +
      exported.substr(points, exported.size() - points - 1) + "}";
  const auto parsed = parse_request(line);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  ASSERT_EQ(parsed->ex.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(bits(parsed->ex[i].x), bits(s[i].x)) << i;
    EXPECT_EQ(bits(parsed->ex[i].y), bits(s[i].y)) << i;
  }
  EXPECT_NE(parsed->ex[1].y, 0.3);
}

TEST(JsonParse, AcceptsEveryValueKind) {
  const auto parsed = parse_request(
      R"({"null":null,"t":true,"f":false,"num":-1.5e3,"str":"a\"b\n",)"
      R"("arr":[1,[2],{}],"obj":{"k":1},"op":"ping","id":"a\"b\n"})");
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(parsed->op, Op::kPing);
  EXPECT_EQ(parsed->id, "a\"b\n");
  const auto numeric = parse_request(R"({"op":"ping","id":-1.5e3})");
  ASSERT_TRUE(numeric.has_value()) << numeric.error();
  EXPECT_EQ(numeric->id, "-1500");
}

TEST(JsonParse, UnicodeEscapes) {
  // Escapes decode in values and in keys; non-ASCII code points come out
  // as UTF-8.
  const auto parsed =
      parse_request(R"({"\u006fp":"ping","id":"\u0041\u00e9\u4e2d\/\t"})");
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(parsed->op, Op::kPing);
  EXPECT_EQ(parsed->id, "A\xc3\xa9\xe4\xb8\xad/\t");
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"k\" 1}", "{\"k\":1} trailing", "tru",
        "\"unterminated", "01x", "1e999" /* overflows to inf */,
        R"({"op":"ping","id":"\q"})", R"({"op":"ping","id":"\u00g0"})"}) {
    const auto parsed = parse_request(bad);
    ASSERT_FALSE(parsed.has_value()) << "accepted: " << bad;
    EXPECT_NE(parsed.error().find(" at offset "), std::string::npos)
        << bad << ": " << parsed.error();
  }
  const auto parsed = parse_request(R"({"k":})");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error(), "expected a value at offset 5");
  // A syntax error anywhere outranks a field error earlier in the line.
  const auto late = parse_request(R"({"op":"bogus","eta":7,"x":[1,]})");
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.error(), "expected a value at offset 29");
}

TEST(JsonParse, SweepExportsParseCleanly) {
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4};
  sweep.repetitions = 1;
  const auto r =
      trace::run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const std::string exported = trace::to_json(r);
  // The export passes the syntax check and is an object; it only lacks an
  // op. Cut short, it fails the syntax check.
  const auto bare = parse_request(exported);
  ASSERT_FALSE(bare.has_value());
  EXPECT_EQ(bare.error(), "missing required string field 'op'");
  const auto cut = parse_request(exported.substr(0, exported.size() - 1));
  ASSERT_FALSE(cut.has_value());
  EXPECT_EQ(cut.error(), "expected ',' or '}' in object at offset " +
                             std::to_string(exported.size() - 1));
}

TEST(JsonParse, DepthLimitStopsRunawayNesting) {
  // The value of a top-level key sits at depth 1; 64 is the deepest
  // accepted.
  const auto nested = [](int levels) {
    return R"({"op":"ping","x":)" + std::string(levels, '[') + "1" +
           std::string(levels, ']') + "}";
  };
  EXPECT_TRUE(parse_request(nested(63)).has_value());
  const auto deep = parse_request(nested(64));
  ASSERT_FALSE(deep.has_value());
  EXPECT_EQ(deep.error(), "nesting too deep at offset 81");
  EXPECT_FALSE(parse_request(nested(100)).has_value());
}

}  // namespace
}  // namespace ipso::serve
