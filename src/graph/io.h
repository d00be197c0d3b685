// Plain-text serialization for attributed graphs.
//
// Format ("gcon-graph v1", line-oriented):
//   gcon-graph v1
//   nodes <n> classes <c> features <d> edges <m>
//   L <node> <label>                     (n lines)
//   F <node> <idx>:<val> <idx>:<val> ... (n lines, sparse features)
//   E <u> <v>                            (m lines, u < v)
// Feature values are written in the shortest form that reads back to the
// same double (std::to_chars), so 0/1 bag-of-words features print as `1`.
// This lets users plug in the real Cora-ML/CiteSeer/PubMed/Actor data by
// converting them to this format; everything downstream is agnostic to
// whether the graph came from a file or a generator.
#ifndef GCON_GRAPH_IO_H_
#define GCON_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace gcon {

/// Writes `graph` to `path`. Throws std::runtime_error naming the path,
/// node and feature when a feature value is NaN or infinite (LoadGraph
/// would refuse the file), before opening it; aborts on I/O failure.
void SaveGraph(const Graph& graph, const std::string& path);

/// Reads a graph from `path` into canonical CSR features (a repeated
/// feature index keeps its last value; zeros are not stored). Throws
/// std::runtime_error naming the path, the line and the defect: a missing
/// file, bad magic or header, an out-of-range node, label or feature index,
/// a non-finite or malformed value, a self loop or duplicate edge, or an
/// edge count that disagrees with the header.
Graph LoadGraph(const std::string& path);

/// Stream variant: parses one graph file from `in`; `name` labels error
/// messages the way the path does for the file overload. This is the
/// surface the graph fuzz harness drives.
Graph LoadGraph(std::istream& in, const std::string& name);

}  // namespace gcon

#endif  // GCON_GRAPH_IO_H_
