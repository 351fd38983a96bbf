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

/// Size of the reader's window of file bytes, refilled by one stream read
/// at a time. Only a line longer than the whole window grows it.
inline constexpr size_t MatrixMarketWindowBytes = size_t{1} << 20;

/// Least bytes of one part of a window: the window's lines are parsed in
/// parts of at least this many bytes, at most one per pool thread, since a
/// smaller part costs more in pool dispatch than it saves.
inline constexpr size_t MatrixMarketBlockBytes = size_t{1} << 16;

/// Parses a Matrix Market file at \p Path into a graph (parseMatrixMarket
/// on an ifstream). On failure returns std::nullopt and stores a message in
/// \p ErrorMessage if non-null.
///
/// Memory contract (SuiteSparse .mtx files reach tens of GB, so nothing
/// holds the file whole):
///  - File bytes: one window (above). A line longer than the window grows
///    it, doubling, to less than twice that line's length.
///  - Entries: 8 B per counted entry line (its row and column), plus 4 B
///    for its value when the field is real or integer, in one list that
///    grows as a std::vector grows. A symmetric file's mirrors are not
///    stored: the CSR build writes them.
///  - Per window, the list first reserves room for the most entry lines
///    the window's bytes can hold (one per 4 B: 2 B of entry and 1 B of
///    value per byte), but never more than the entries the count still
///    misses. The parts parse into that room, which is then closed up in
///    file order; what is left over serves the next window.
///  - The CSR build (tensor/CooMatrix.h buildCsr): the CSR itself, and
///    per-part row counters only when the entries outnumber the rows part
///    by part, so the counters never outgrow the entry list.
///  - Nothing is sized up from the entry count the size line claims: it
///    only caps a window's reservation. A dimension above MaxGraphNodes,
///    or one whose CSR row offsets would exceed the host's physical memory
///    (support/Memory.h), is rejected before anything is allocated for it.
/// The entry list is freed before the graph's checks run over the CSR.
std::optional<Graph> readMatrixMarket(const std::string &Path,
                                      std::string *ErrorMessage = nullptr);

/// Parses Matrix Market data from an already-open stream (the streaming
/// core readMatrixMarket wraps around an ifstream). Lines split at '\n'
/// exactly as std::getline splits them; a body line is trimmed of ASCII
/// whitespace (so a CRLF '\r' drops) before it is parsed. The body is read
/// one window at a time; the window's lines are split at line ends into
/// parts parsed in parallel on the shared pool, and their entries are
/// appended in file order until the size line's count is reached. The
/// first bad line in file order fails the read, and nothing after the
/// last counted entry is read or checked. The graph does not depend on
/// the thread count.
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
