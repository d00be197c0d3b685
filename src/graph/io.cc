#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"

namespace gcon {
namespace {

// A malformed graph file is an environmental defect (a truncated copy, a
// hand edit, the wrong path), not a programming error: report where and
// what, so `gcon_cli` can print it instead of aborting.
[[noreturn]] void BadGraph(const std::string& name, std::size_t line,
                           const std::string& what) {
  throw std::runtime_error("graph file '" + name + "' line " +
                           std::to_string(line) + ": " + what);
}

// Splits `line` on spaces, tabs and carriage returns.
void Tokenize(std::string_view line, std::vector<std::string_view>* tokens) {
  tokens->clear();
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t start = line.find_first_not_of(" \t\r", pos);
    if (start == std::string_view::npos) break;
    std::size_t end = line.find_first_of(" \t\r", start);
    if (end == std::string_view::npos) end = line.size();
    tokens->push_back(line.substr(start, end - start));
    pos = end;
  }
}

// Parses all of `token` as a decimal integer in [0, limit).
bool ParseIndex(std::string_view token, std::int64_t limit, std::int64_t* out) {
  std::int64_t value = 0;
  const char* last = token.data() + token.size();
  const std::from_chars_result result =
      std::from_chars(token.data(), last, value);
  if (result.ec != std::errc() || result.ptr != last || value < 0 ||
      value >= limit) {
    return false;
  }
  *out = value;
  return true;
}

struct FeatureEntry {
  std::int32_t row;
  std::int32_t col;
  double value;
};

// Canonical CSR of the entries in file order: sorted by (row, col), the
// last of repeated coordinates wins (as assigning into a dense matrix
// would), and zeros are dropped.
CsrMatrix FeatureCsr(std::vector<FeatureEntry> entries, std::size_t rows,
                     std::size_t cols) {
  const auto before = [](const FeatureEntry& a, const FeatureEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  if (!std::is_sorted(entries.begin(), entries.end(), before)) {
    std::stable_sort(entries.begin(), entries.end(), before);
  }
  std::vector<std::int64_t> row_ptr(rows + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(entries.size());
  values.reserve(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const FeatureEntry& e = entries[k];
    const bool last_of_coordinate = k + 1 == entries.size() ||
                                    entries[k + 1].row != e.row ||
                                    entries[k + 1].col != e.col;
    if (!last_of_coordinate || e.value == 0.0) continue;
    col_idx.push_back(e.col);
    values.push_back(e.value);
    ++row_ptr[static_cast<std::size_t>(e.row) + 1];
  }
  for (std::size_t i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace

void SaveGraph(const Graph& graph, const std::string& path) {
  const CsrMatrix& x = graph.feature_csr();
  // LoadGraph refuses non-finite values, so refuse to write a file it
  // could not read back — before anything reaches the disk.
  for (int v = 0; v < graph.num_nodes(); ++v) {
    const std::size_t row = static_cast<std::size_t>(v);
    for (std::int64_t k = x.row_ptr()[row]; k < x.row_ptr()[row + 1]; ++k) {
      const double value = x.values()[static_cast<std::size_t>(k)];
      if (std::isfinite(value)) continue;
      throw std::runtime_error(
          "graph file '" + path + "': node " + std::to_string(v) +
          " feature " +
          std::to_string(x.col_idx()[static_cast<std::size_t>(k)]) +
          " is non-finite (" + std::to_string(value) + ")");
    }
  }
  std::ofstream out(path);
  GCON_CHECK(out.good()) << "cannot open " << path << " for writing";
  out << "gcon-graph v1\n";
  out << "nodes " << graph.num_nodes() << " classes " << graph.num_classes()
      << " features " << graph.feature_dim() << " edges " << graph.num_edges()
      << "\n";
  for (int v = 0; v < graph.num_nodes(); ++v) {
    out << "L " << v << " " << graph.label(v) << "\n";
  }
  std::string line;
  char number[32];
  const auto append = [&line, &number](auto value) {
    const std::to_chars_result r =
        std::to_chars(number, number + sizeof(number), value);
    line.append(number, r.ptr);
  };
  for (int v = 0; v < graph.num_nodes(); ++v) {
    line = "F ";
    append(v);
    const std::size_t row = static_cast<std::size_t>(v);
    for (std::int64_t k = x.row_ptr()[row]; k < x.row_ptr()[row + 1]; ++k) {
      line += ' ';
      append(x.col_idx()[static_cast<std::size_t>(k)]);
      line += ':';
      // Shortest form that reads back to the same double.
      append(x.values()[static_cast<std::size_t>(k)]);
    }
    line += '\n';
    out << line;
  }
  for (const auto& [u, v] : graph.EdgeList()) {
    out << "E " << u << " " << v << "\n";
  }
  GCON_CHECK(out.good()) << "write failure on " << path;
}

Graph LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("graph file '" + path +
                             "': cannot open (missing file or no read "
                             "permission)");
  }
  return LoadGraph(in, path);
}

Graph LoadGraph(std::istream& in, const std::string& name) {
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text.data() + pos, end - pos);
    pos = end + 1;
  }
  if (lines.empty()) BadGraph(name, 1, "empty file");
  if (lines[0] != "gcon-graph v1") {
    BadGraph(name, 1, "bad magic '" + std::string(lines[0]) +
                          "' (want 'gcon-graph v1')");
  }
  if (lines.size() < 2) BadGraph(name, 2, "missing header line");

  std::vector<std::string_view> tokens;
  Tokenize(lines[1], &tokens);
  // The file must back every declared node with at least one line (SaveGraph
  // writes two per node), so a hostile header cannot make the loader
  // allocate per-node storage far beyond the file's own size.
  const std::int64_t max_nodes = static_cast<std::int64_t>(lines.size());
  std::int64_t n = 0, c = 0, d = 0, m = 0;
  if (tokens.size() != 8 || tokens[0] != "nodes" || tokens[2] != "classes" ||
      tokens[4] != "features" || tokens[6] != "edges") {
    BadGraph(name, 2,
             "bad header (want 'nodes <n> classes <c> features <d> edges "
             "<m>')");
  }
  if (!ParseIndex(tokens[1], INT_MAX, &n)) {
    BadGraph(name, 2, "bad node count '" + std::string(tokens[1]) + "'");
  }
  if (n > max_nodes) {
    BadGraph(name, 2, "header declares " + std::to_string(n) +
                          " nodes but the file has only " +
                          std::to_string(max_nodes) + " lines");
  }
  if (!ParseIndex(tokens[3], INT_MAX, &c) || (c == 0 && n > 0)) {
    BadGraph(name, 2, "bad class count '" + std::string(tokens[3]) + "'");
  }
  if (!ParseIndex(tokens[5], INT_MAX, &d)) {
    BadGraph(name, 2, "bad feature dimension '" + std::string(tokens[5]) + "'");
  }
  if (!ParseIndex(tokens[7], INT64_MAX, &m)) {
    BadGraph(name, 2, "bad edge count '" + std::string(tokens[7]) + "'");
  }

  Graph graph(static_cast<int>(n), static_cast<int>(c));
  std::vector<FeatureEntry> features;
  const auto index = [&](std::size_t line, std::string_view token,
                         std::int64_t limit, const char* what) {
    std::int64_t value = 0;
    if (!ParseIndex(token, limit, &value)) {
      BadGraph(name, line, std::string(what) + " '" + std::string(token) +
                               "' is not in [0, " + std::to_string(limit) +
                               ")");
    }
    return static_cast<int>(value);
  };
  for (std::size_t i = 2; i < lines.size(); ++i) {
    const std::size_t line = i + 1;
    Tokenize(lines[i], &tokens);
    if (tokens.empty()) continue;
    const std::string_view kind = tokens[0];
    if (kind == "L") {
      if (tokens.size() != 3) BadGraph(name, line, "want 'L <node> <label>'");
      const int v = index(line, tokens[1], n, "node");
      graph.set_label(v, index(line, tokens[2], c, "label"));
    } else if (kind == "F") {
      if (tokens.size() < 2) {
        BadGraph(name, line, "want 'F <node> <idx>:<val> ...'");
      }
      const int v = index(line, tokens[1], n, "node");
      for (std::size_t t = 2; t < tokens.size(); ++t) {
        const std::string_view pair = tokens[t];
        const std::size_t colon = pair.find(':');
        if (colon == std::string_view::npos) {
          BadGraph(name, line, "bad feature '" + std::string(pair) +
                                   "' (want <idx>:<val>)");
        }
        const int col = index(line, pair.substr(0, colon), d, "feature index");
        double value = 0.0;
        if (!ParseFiniteDouble(pair.data() + colon + 1,
                               pair.data() + pair.size(), &value)) {
          BadGraph(name, line, "non-finite or malformed feature value '" +
                                   std::string(pair.substr(colon + 1)) + "'");
        }
        features.push_back({v, col, value});
      }
    } else if (kind == "E") {
      if (tokens.size() != 3) BadGraph(name, line, "want 'E <u> <v>'");
      const int u = index(line, tokens[1], n, "node");
      const int v = index(line, tokens[2], n, "node");
      if (u == v) BadGraph(name, line, "self loop at " + std::to_string(u));
      if (!graph.AddEdge(u, v)) {
        BadGraph(name, line, "duplicate edge " + std::to_string(u) + "-" +
                                 std::to_string(v));
      }
    } else {
      BadGraph(name, line, "bad record type '" + std::string(kind) + "'");
    }
  }
  if (static_cast<std::int64_t>(graph.num_edges()) != m) {
    BadGraph(name, lines.size(),
             "edge count mismatch: header declares " + std::to_string(m) +
                 ", file lists " + std::to_string(graph.num_edges()));
  }
  graph.set_features(FeatureCsr(std::move(features),
                                static_cast<std::size_t>(n),
                                static_cast<std::size_t>(d)));
  graph.CheckConsistency();
  return graph;
}

}  // namespace gcon
