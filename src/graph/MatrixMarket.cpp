//===- MatrixMarket.cpp - Matrix Market (.mtx) reader/writer ---------------===//

#include "graph/MatrixMarket.h"

#include "support/Memory.h"
#include "support/Str.h"
#include "tensor/CooMatrix.h"

#include <cstring>
#include <fstream>
#include <sstream>

using namespace granii;

namespace {

/// Sets \p ErrorMessage (if non-null) and returns std::nullopt.
std::optional<Graph> fail(std::string *ErrorMessage, const std::string &Msg) {
  if (ErrorMessage)
    *ErrorMessage = Msg;
  return std::nullopt;
}

/// Hands out the '\n'-separated lines of a stream (getline's split) as
/// views into one MatrixMarketBlockBytes buffer, refilled by one read each
/// time its lines run out. The unfinished line at the buffer's end moves to
/// the front first; only a line longer than the whole buffer grows it
/// (doubling, so even a huge line costs linear time).
class LineScanner {
public:
  explicit LineScanner(std::istream &Stream)
      : Stream(Stream), Buffer(MatrixMarketBlockBytes) {}

  /// Stores the next line (without its '\n') in \p Line; the view lives
  /// until the next call. \returns false at the end of the input.
  bool next(std::string_view &Line) {
    while (true) {
      char *Data = Buffer.data();
      if (const void *Newline =
              std::memchr(Data + Scanned, '\n', End - Scanned)) {
        size_t Stop = static_cast<size_t>(
            static_cast<const char *>(Newline) - Data);
        Line = std::string_view(Data + Begin, Stop - Begin);
        Begin = Scanned = Stop + 1;
        return true;
      }
      if (AtEof) {
        if (Begin == End)
          return false;
        Line = std::string_view(Data + Begin, End - Begin);
        Begin = Scanned = End;
        return true;
      }
      if (Begin != 0) {
        std::memmove(Data, Data + Begin, End - Begin);
        End -= Begin;
        Begin = 0;
      }
      Scanned = End; // no '\n' before End
      if (End == Buffer.size())
        Buffer.resize(2 * Buffer.size());
      size_t Want = Buffer.size() - End;
      Stream.read(Buffer.data() + End, static_cast<std::streamsize>(Want));
      size_t Got = static_cast<size_t>(Stream.gcount());
      End += Got;
      AtEof = Got < Want;
    }
  }

private:
  std::istream &Stream;
  std::vector<char> Buffer;
  size_t Begin = 0;   ///< first byte of the current line
  size_t Scanned = 0; ///< [Begin, Scanned) holds no '\n'
  size_t End = 0;     ///< one past the last byte read
  bool AtEof = false;
};

} // namespace

std::optional<Graph> granii::parseMatrixMarket(const std::string &Text,
                                               const std::string &Name,
                                               std::string *ErrorMessage) {
  std::istringstream Stream(Text);
  return parseMatrixMarket(Stream, Name, ErrorMessage);
}

std::optional<Graph> granii::parseMatrixMarket(std::istream &Stream,
                                               const std::string &Name,
                                               std::string *ErrorMessage) {
  LineScanner Scanner(Stream);
  std::string_view Line;
  if (!Scanner.next(Line))
    return fail(ErrorMessage, "empty matrix market input");

  // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
  std::vector<std::string> Header;
  for (const std::string &Part : splitString(Line, ' '))
    if (!Part.empty())
      Header.push_back(Part);
  if (Header.size() < 5 || Header[0] != "%%MatrixMarket" ||
      Header[1] != "matrix" || Header[2] != "coordinate")
    return fail(ErrorMessage,
                "unsupported matrix market header (need coordinate format)");
  const std::string &Field = Header[3];
  const std::string &Symmetry = Header[4];
  if (Field != "pattern" && Field != "real" && Field != "integer")
    return fail(ErrorMessage, "unsupported matrix market field: " + Field);
  if (Symmetry != "general" && Symmetry != "symmetric")
    return fail(ErrorMessage,
                "unsupported matrix market symmetry: " + Symmetry);
  bool HasValues = Field != "pattern";
  bool Symmetric = Symmetry == "symmetric";

  // Skip comment lines, read the size line.
  int64_t Rows = 0, Cols = 0, Entries = 0;
  while (Scanner.next(Line)) {
    std::string_view Trimmed = trimString(Line);
    if (Trimmed.empty() || Trimmed.front() == '%')
      continue;
    std::string_view Rest = Trimmed;
    if (!parseInt64(popField(Rest), Rows) ||
        !parseInt64(popField(Rest), Cols) ||
        !parseInt64(popField(Rest), Entries) || !popField(Rest).empty())
      return fail(ErrorMessage, "malformed matrix market size line");
    break;
  }
  if (Rows <= 0 || Cols <= 0 || Rows != Cols)
    return fail(ErrorMessage, "graph adjacency must be square and non-empty");
  if (Rows > MaxGraphNodes)
    return fail(ErrorMessage, "matrix market dimension " +
                                  std::to_string(Rows) + " exceeds the " +
                                  std::to_string(MaxGraphNodes) +
                                  "-node limit");
  // The CSR's row offsets are sized from the dimension alone (the entry
  // count is not trusted for sizing): they must fit in memory.
  if (std::string Error;
      !fitsInMemory(graphBuildBytes(Rows, 0), physicalMemoryBytes(),
                    "the CSR row offsets of a " + std::to_string(Rows) +
                        "-node matrix market graph",
                    &Error))
    return fail(ErrorMessage, Error);

  // Nothing is reserved from the claimed entry count: it is untrusted, and
  // a short body must fail with the count mismatch, not an allocation.
  CooMatrix Coo(Rows, Cols);
  int64_t Seen = 0;
  while (Seen < Entries && Scanner.next(Line)) {
    std::string_view Trimmed = trimString(Line);
    if (Trimmed.empty() || Trimmed.front() == '%')
      continue;
    int64_t R = 0, C = 0;
    double V = 1.0;
    std::string_view Rest = Trimmed;
    bool Ok = parseInt64(popField(Rest), R) && parseInt64(popField(Rest), C);
    // Fields past the value (or past the column, for pattern) are ignored.
    if (Ok && HasValues)
      if (std::string_view Value = popField(Rest); !Value.empty())
        Ok = parseDouble(Value, V);
    if (!Ok)
      return fail(ErrorMessage,
                  "malformed matrix market entry: " + std::string(Trimmed));
    if (R < 1 || R > Rows || C < 1 || C > Cols)
      return fail(ErrorMessage,
                  "matrix market entry out of bounds: " + std::string(Trimmed));
    // Matrix Market is 1-based.
    if (Symmetric)
      Coo.addSymmetric(R - 1, C - 1, static_cast<float>(V));
    else
      Coo.add(R - 1, C - 1, static_cast<float>(V));
    ++Seen;
  }
  if (Seen != Entries)
    return fail(ErrorMessage, "matrix market entry count mismatch");
  return Graph(Name, Coo.toCsr(/*Unweighted=*/!HasValues));
}

std::optional<Graph> granii::readMatrixMarket(const std::string &Path,
                                              std::string *ErrorMessage) {
  std::ifstream In(Path);
  if (!In)
    return fail(ErrorMessage, "cannot open file: " + Path);
  // Derive the graph name from the file name without extension.
  std::string Name = Path;
  if (size_t Slash = Name.find_last_of('/'); Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  if (size_t Dot = Name.find_last_of('.'); Dot != std::string::npos)
    Name = Name.substr(0, Dot);
  // Stream straight from the file: no whole-file copy in memory.
  return parseMatrixMarket(In, Name, ErrorMessage);
}

bool granii::writeMatrixMarket(const Graph &G, const std::string &Path,
                               std::string *ErrorMessage) {
  std::ofstream Out(Path);
  if (!Out) {
    if (ErrorMessage)
      *ErrorMessage = "cannot open file for writing: " + Path;
    return false;
  }
  const CsrMatrix &Adj = G.adjacency();
  // Emit only the lower triangle; format is symmetric.
  int64_t LowerCount = 0;
  const auto &Offsets = Adj.rowOffsets();
  const auto &Cols = Adj.colIndices();
  for (int64_t R = 0; R < Adj.rows(); ++R)
    for (int64_t K = Offsets[static_cast<size_t>(R)];
         K < Offsets[static_cast<size_t>(R) + 1]; ++K)
      if (Cols[static_cast<size_t>(K)] <= R)
        ++LowerCount;

  Out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  Out << "% graph: " << G.name() << "\n";
  Out << Adj.rows() << " " << Adj.cols() << " " << LowerCount << "\n";
  for (int64_t R = 0; R < Adj.rows(); ++R)
    for (int64_t K = Offsets[static_cast<size_t>(R)];
         K < Offsets[static_cast<size_t>(R) + 1]; ++K)
      if (Cols[static_cast<size_t>(K)] <= R)
        Out << (R + 1) << " " << (Cols[static_cast<size_t>(K)] + 1) << "\n";
  return static_cast<bool>(Out);
}
