//===- MatrixMarket.h - Matrix Market (.mtx) reader/writer ------*- C++ -*-===//
///
/// \file
/// Reader and writer for the NIST Matrix Market coordinate format, the
/// interchange format of the SuiteSparse collection the paper sources its
/// graphs from. Supports `pattern` (unweighted) and `real` (weighted)
/// matrices with `general` or `symmetric` storage.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_GRAPH_MATRIXMARKET_H
#define GRANII_GRAPH_MATRIXMARKET_H

#include "graph/Graph.h"

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>

namespace granii {

/// Size of the reader's buffer, refilled by one stream read at a time.
/// Lines are scanned as views into it, so an entry costs one pass over its
/// bytes and no allocation; a line cut by the buffer's end is carried into
/// the next read.
inline constexpr size_t MatrixMarketBlockBytes = size_t{1} << 16;

/// Parses a Matrix Market file at \p Path into a graph. Streams the file in
/// MatrixMarketBlockBytes blocks — peak transient memory is one block (or
/// one longer line) plus the COO triples, never a second whole-file copy
/// (SuiteSparse .mtx files reach tens of GB). Nothing is reserved from the
/// entry count the size line claims, and a dimension above MaxGraphNodes,
/// or one whose CSR row offsets would exceed the host's physical memory
/// (support/Memory.h), is rejected before anything is allocated for it. On
/// failure returns std::nullopt and stores a message in \p ErrorMessage if
/// non-null.
std::optional<Graph> readMatrixMarket(const std::string &Path,
                                      std::string *ErrorMessage = nullptr);

/// Parses Matrix Market data from an already-open stream (the streaming
/// core readMatrixMarket wraps around an ifstream). Lines split at '\n'
/// exactly as std::getline splits them; a body line is trimmed of ASCII
/// whitespace (so a CRLF '\r' drops) before it is parsed.
std::optional<Graph> parseMatrixMarket(std::istream &Stream,
                                       const std::string &Name,
                                       std::string *ErrorMessage = nullptr);

/// Parses Matrix Market text held in memory (used by tests).
std::optional<Graph> parseMatrixMarket(const std::string &Text,
                                       const std::string &Name,
                                       std::string *ErrorMessage = nullptr);

/// Writes \p G to \p Path in symmetric pattern coordinate format.
/// \returns false (with \p ErrorMessage set) if the file cannot be written.
bool writeMatrixMarket(const Graph &G, const std::string &Path,
                       std::string *ErrorMessage = nullptr);

} // namespace granii

#endif // GRANII_GRAPH_MATRIXMARKET_H
