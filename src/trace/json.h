#pragma once

#include "trace/experiment.h"

#include <string>
#include <string_view>

/// \file json.h
/// JSON writers for the experiment harness and the serving layer:
/// to_json() exporters turn sweep results into JSON for downstream
/// plotting/analysis tooling (the usual notebook), and json_double() /
/// json_escape() are the pieces every response builder uses. The serving
/// protocol's reader lives with its grammar in serve/proto.cpp.
///
/// Doubles are always emitted with max_digits10 (17 significant digits), so
/// a serialize -> parse round trip reproduces every double bit-exactly;
/// 12-digit output used to truncate values like 1/3.

namespace ipso::trace {

/// Serializes one double exactly (max_digits10); "1" for 1.0, like
/// operator<<. Shared by every JSON writer in the repository.
std::string json_double(double v);

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, and control characters (\n, \t, ... as \uXXXX or the short
/// forms). Returns the escaped body without surrounding quotes.
std::string json_escape(std::string_view s);

/// One series as {"name": "...", "points": [[x, y], ...]}.
std::string to_json(const stats::Series& series);

/// A MapReduce sweep: speedup + factor series + eta/tp1/ts1 + per-point
/// component attribution.
std::string to_json(const MrSweepResult& result);

/// A Spark sweep: speedup + factor series + per-point attribution.
std::string to_json(const SparkSweepResult& result);

}  // namespace ipso::trace
