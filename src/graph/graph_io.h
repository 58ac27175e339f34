// pathest: text serialization for graphs.
//
// Format ("pathest edge-list v1"):
//   # comment lines and blank lines are ignored
//   <src-vertex-id> <label-name> <dst-vertex-id>
// one edge per line, whitespace-separated. Vertex ids are non-negative
// integers; label names are arbitrary non-whitespace tokens.

#ifndef PATHEST_GRAPH_GRAPH_IO_H_
#define PATHEST_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/status.h"

namespace pathest {

/// \brief Options for the streaming graph loader.
struct GraphLoadOptions {
  /// Also materialize in-neighbor CSR structures.
  bool with_reverse = false;

  /// Worker threads for chunked parsing AND the graph build (see
  /// GraphBuildOptions::num_threads). 0 = one per hardware core. The
  /// loaded Graph — label ids, vertex range, every derived structure —
  /// is bit-identical at every value: chunks split on newline
  /// boundaries, per-chunk label tables merge in chunk order (which
  /// reproduces file-order first-appearance interning exactly), and the
  /// earliest error line wins.
  size_t num_threads = 0;
};

/// \brief Where one load's wall-clock went.
struct GraphLoadStats {
  size_t num_threads = 1;  ///< resolved parse worker count
  size_t num_chunks = 1;   ///< newline-aligned parse chunks
  double read_ms = 0;      ///< stream slurp
  double parse_ms = 0;     ///< chunked from_chars parse + label merge
  GraphBuildStats build;   ///< the Build breakdown
  double total_ms = 0;     ///< end-to-end load wall time
};

/// \brief Parses an edge-list stream into a Graph.
///
/// Slurps the stream once and parses newline-aligned chunks in parallel
/// on std::from_chars cursors — no per-line istringstream. Matches the
/// line-oriented istream semantics exactly: lines whose first token is
/// missing or not a parseable integer are skipped, a missing/bad label
/// or dst is "malformed edge at line N", ids above 32 bits are
/// OutOfRange, negative ids wrap like istream's unsigned extraction,
/// and trailing junk after the dst is ignored.
Result<Graph> ReadGraphText(std::istream* in, const GraphLoadOptions& options,
                            GraphLoadStats* stats = nullptr);

/// \brief ReadGraphText with default options, except the reverse flag.
Result<Graph> ReadGraphText(std::istream* in, bool with_reverse = false);

/// \brief Loads an edge-list file.
Result<Graph> LoadGraphFile(const std::string& path,
                            const GraphLoadOptions& options,
                            GraphLoadStats* stats = nullptr);

/// \brief LoadGraphFile with default options, except the reverse flag.
Result<Graph> LoadGraphFile(const std::string& path,
                            bool with_reverse = false);

/// \brief Writes a graph as an edge list, streaming edges straight from
/// the per-label CSRs in (label, src, dst) order — the same order
/// CollectEdges produces, without materializing the edge list.
Status WriteGraphText(const Graph& graph, std::ostream* out);

/// \brief Saves a graph to an edge-list file.
Status SaveGraphFile(const Graph& graph, const std::string& path);

}  // namespace pathest

#endif  // PATHEST_GRAPH_GRAPH_IO_H_
