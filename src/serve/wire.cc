#include "serve/wire.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <locale>
#include <sstream>

#include "common/string_util.h"

namespace gcon {
namespace {

/// Minimal recursive-descent scanner over one wire line.
class LineScanner {
 public:
  explicit LineScanner(const std::string& line) : line_(line) {}

  void SkipWs() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < line_.size() && line_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < line_.size() && line_[pos_] == c;
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= line_.size();
  }

  /// A quoted string. The escapes the writers emit (EscapeJson), \" and
  /// \\, decode; any other escape fails with *bad_escape naming it.
  bool ReadString(std::string* out, std::string* bad_escape) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < line_.size() && line_[pos_] != '"') {
      char c = line_[pos_++];
      if (c == '\\' && pos_ < line_.size()) {
        c = line_[pos_++];
        if (c != '"' && c != '\\') {
          *bad_escape = std::string("unsupported escape '\\") + c +
                        "' in a string (only \\\" and \\\\ are decoded)";
          return false;
        }
      }
      out->push_back(c);
    }
    return Consume('"');
  }

  bool ReadInt(std::int64_t* out) {
    SkipWs();
    const std::size_t start = pos_;
    if (pos_ < line_.size() && (line_[pos_] == '-' || line_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start ||
        (pos_ == start + 1 && !std::isdigit(
                                  static_cast<unsigned char>(line_[start])))) {
      return false;
    }
    try {
      *out = std::stoll(line_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  /// JSON number: optional sign, digits, optional fraction/exponent. The
  /// token is cut at the first character no number can contain and handed
  /// to ParseFiniteDouble (std::from_chars), so "1e" or "." fail instead of
  /// half-parsing. from_chars, unlike the strtod it replaced, never
  /// consults LC_NUMERIC: a host process in a comma-decimal locale (de_DE)
  /// parses "0.5" identically to the C locale (regression-tested in the
  /// conformance suite). Range policy is unchanged from the strtod era:
  /// magnitudes below the smallest subnormal parse as signed zero
  /// (underflow is a valid feature value; 1e-310 still parses to the exact
  /// subnormal), magnitudes no double can hold reject.
  bool ReadDouble(double* out) {
    SkipWs();
    const std::size_t start = pos_;
    while (pos_ < line_.size()) {
      const char c = line_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+' || c == '.' || c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    return ParseFiniteDouble(line_.data() + start, line_.data() + pos_, out);
  }

 private:
  const std::string& line_;
  std::size_t pos_ = 0;
};

bool ParseRequestBody(const std::string& line, WireCommand* command,
                      ServeRequest* request, std::string* error) {
  LineScanner scan(line);
  if (!scan.Consume('{')) {
    *error = "request must be a {...} object";
    return false;
  }
  // A string value: an unsupported escape names itself, any other defect
  // reports `what`.
  const auto read_string = [&](std::string* out, const char* what) {
    std::string bad_escape;
    if (scan.ReadString(out, &bad_escape)) return true;
    *error = bad_escape.empty() ? what : bad_escape;
    return false;
  };
  bool have_node = false;
  std::string cmd;
  if (!scan.Peek('}')) {
    do {
      std::string key;
      if (!read_string(&key, "expected a quoted key")) return false;
      if (!scan.Consume(':')) {
        *error = "expected ':' after key '" + key + "'";
        return false;
      }
      if (key == "id") {
        if (!scan.ReadInt(&request->id)) {
          *error = "key 'id' wants an integer";
          return false;
        }
      } else if (key == "node") {
        std::int64_t node = 0;
        if (!scan.ReadInt(&node)) {
          *error = "key 'node' wants an integer";
          return false;
        }
        // Negative ids are rejected here, not downstream: -1 is the
        // struct's "no node" sentinel, so letting it through would make
        // {"node": -1, "features": [...]} indistinguishable from a pure
        // feature query and dodge the either/or validation.
        if (node < 0) {
          *error = "key 'node' wants a non-negative integer";
          return false;
        }
        // Reject instead of narrowing: a wrapped id could land inside
        // [0, n) and silently serve the wrong node.
        if (node > std::numeric_limits<int>::max()) {
          *error = "key 'node' out of range";
          return false;
        }
        request->node = static_cast<int>(node);
        have_node = true;
      } else if (key == "edges") {
        if (!scan.Consume('[')) {
          *error = "key 'edges' wants an array of integers";
          return false;
        }
        request->has_edges = true;
        request->edges.clear();
        if (!scan.Peek(']')) {
          do {
            std::int64_t endpoint = 0;
            if (!scan.ReadInt(&endpoint)) {
              *error = "key 'edges' wants integers";
              return false;
            }
            if (endpoint < std::numeric_limits<int>::min() ||
                endpoint > std::numeric_limits<int>::max()) {
              *error = "key 'edges' entry out of range";
              return false;
            }
            request->edges.push_back(static_cast<int>(endpoint));
          } while (scan.Consume(','));
        }
        if (!scan.Consume(']')) {
          *error = "unterminated 'edges' array";
          return false;
        }
      } else if (key == "features") {
        if (!scan.Consume('[')) {
          *error = "key 'features' wants an array of numbers";
          return false;
        }
        request->has_features = true;
        request->features.clear();
        if (!scan.Peek(']')) {
          do {
            double value = 0.0;
            if (!scan.ReadDouble(&value)) {
              *error = "key 'features' wants numbers";
              return false;
            }
            request->features.push_back(value);
          } while (scan.Consume(','));
        }
        if (!scan.Consume(']')) {
          *error = "unterminated 'features' array";
          return false;
        }
      } else if (key == "model") {
        if (!read_string(&request->model,
                         "key 'model' wants a quoted string")) {
          return false;
        }
      } else if (key == "deadline_us") {
        std::int64_t deadline = 0;
        if (!scan.ReadInt(&deadline) || deadline <= 0) {
          *error = "key 'deadline_us' wants a positive integer";
          return false;
        }
        request->deadline_us = deadline;
      } else if (key == "path") {
        if (!read_string(&request->path, "key 'path' wants a quoted string")) {
          return false;
        }
      } else if (key == "cmd") {
        if (!read_string(&cmd, "key 'cmd' wants a quoted string")) {
          return false;
        }
      } else {
        *error = "unknown key '" + key +
                 "' (want id, node, edges, features, model, deadline_us, "
                 "path, or cmd)";
        return false;
      }
    } while (scan.Consume(','));
  }
  if (!scan.Consume('}') || !scan.AtEnd()) {
    *error = "trailing garbage after the request object";
    return false;
  }

  if (!cmd.empty()) {
    if (cmd == "stats") {
      *command = WireCommand::kStats;
      return true;
    }
    if (cmd == "list_models") {
      *command = WireCommand::kListModels;
      return true;
    }
    if (cmd == "quit") {
      *command = WireCommand::kQuit;
      return true;
    }
    if (cmd == "publish") {
      if (request->path.empty()) {
        *error = "cmd 'publish' needs a 'path' naming the artifact file";
        return false;
      }
      *command = WireCommand::kPublish;
      return true;
    }
    if (cmd == "drain") {
      *command = WireCommand::kDrain;
      return true;
    }
    if (cmd == "metrics") {
      *command = WireCommand::kMetrics;
      return true;
    }
    if (cmd == "trace") {
      *command = WireCommand::kTrace;
      return true;
    }
    if (cmd == "budget") {
      *command = WireCommand::kBudget;
      return true;
    }
    *error = "unknown cmd '" + cmd +
             "' (want stats, list_models, publish, budget, drain, metrics, "
             "trace, or quit)";
    return false;
  }
  if (!request->path.empty()) {
    *error = "key 'path' is only valid with cmd 'publish'";
    return false;
  }
  if (!have_node && !request->has_features) {
    *error = "query needs a 'node' or 'features' key";
    return false;
  }
  return true;
}

}  // namespace

bool RecoverWireId(const std::string& line, std::int64_t* id) {
  // Find a quoted "id" key anywhere and parse the integer after its colon.
  // This runs only on lines the real parser rejected, so it tolerates any
  // surrounding garbage — the goal is correlation, not validation.
  for (std::size_t at = line.find("\"id\""); at != std::string::npos;
       at = line.find("\"id\"", at + 1)) {
    std::size_t pos = at + 4;
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos >= line.size() || line[pos] != ':') continue;
    ++pos;
    const std::string tail = line.substr(pos);  // LineScanner holds a ref
    LineScanner scan(tail);
    if (scan.ReadInt(id)) return true;
  }
  return false;
}

bool ParseWireRequest(const std::string& line, WireCommand* command,
                      ServeRequest* request, std::string* error) {
  *command = WireCommand::kQuery;
  *request = ServeRequest{};
  if (ParseRequestBody(line, command, request, error)) return true;
  // The defect may precede the "id" key, in which case the in-order parse
  // never reached it; re-scan so the error line still correlates.
  std::int64_t recovered = 0;
  if (request->id == 0 && RecoverWireId(line, &recovered)) {
    request->id = recovered;
  }
  return false;
}

std::string FormatWireResponse(const ServeResponse& response) {
  std::ostringstream out;
  // Wire bytes must not depend on the host process's global locale (which
  // ostringstream captures at construction): pin the classic "C" locale so
  // an embedder calling std::locale::global(de_DE) cannot turn logits into
  // "0,5" or group integer digits.
  out.imbue(std::locale::classic());
  out.precision(17);
  out << "{\"id\": " << response.id << ", \"node\": " << response.node
      << ", \"label\": " << response.label << ", \"logits\": [";
  for (std::size_t j = 0; j < response.logits.size(); ++j) {
    out << (j == 0 ? "" : ", ") << response.logits[j];
  }
  out << "]}";
  return out.str();
}

std::string FormatWireError(std::int64_t id, const std::string& error) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << "{\"id\": " << id << ", \"error\": \"" << EscapeJson(error)
      << "\"}";
  return out.str();
}

std::string FormatWireError(std::int64_t id, ServeErrorCode code,
                            const std::string& error) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << "{\"id\": " << id << ", \"code\": \"" << ServeErrorCodeName(code)
      << "\", \"error\": \"" << EscapeJson(error) << "\"}";
  return out.str();
}

}  // namespace gcon
