//===- MatrixMarket.cpp - Matrix Market (.mtx) reader/writer ---------------===//

#include "graph/MatrixMarket.h"

#include "support/Memory.h"
#include "support/Str.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "tensor/CooMatrix.h"

#include <algorithm>
#include <cassert>
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

/// The reader's one window of file bytes, refilled by one stream read each
/// time its lines run out. It hands out the '\n'-separated lines of the
/// stream (getline's split) either one at a time or as every complete line
/// it holds. The unfinished line at its end moves to the front before each
/// read. Only a line longer than the whole window grows it (doubling, so
/// even a huge line costs linear time).
class Window {
public:
  explicit Window(std::istream &Stream)
      : Stream(Stream), Capacity(MatrixMarketWindowBytes),
        Data(static_cast<char *>(
            allocateAligned(Capacity, KernelAlignment))) {}
  Window(const Window &) = delete;
  Window &operator=(const Window &) = delete;
  ~Window() { deallocateAligned(Data, Capacity, KernelAlignment); }

  /// Stores the next line (without its '\n') in \p Line; the view lives
  /// until the next call. \returns false at the end of the input.
  bool nextLine(std::string_view &Line) {
    while (true) {
      if (const void *Newline =
              std::memchr(Data + Scanned, '\n', End - Scanned)) {
        size_t Stop = static_cast<size_t>(
            static_cast<const char *>(Newline) - Data);
        Line = std::string_view(Data + Begin, Stop - Begin);
        Begin = Scanned = Stop + 1;
        return true;
      }
      Scanned = End; // no '\n' before End
      if (AtEof) {
        if (Begin == End)
          return false;
        Line = std::string_view(Data + Begin, End - Begin);
        Begin = Scanned = End;
        return true;
      }
      refill();
    }
  }

  /// Hands out every complete line the window holds past those already
  /// handed out, reading first if it holds none: lines that each end in
  /// '\n', but for a last line of the input without one. The view lives
  /// until the next call; it is empty at the end of the input.
  std::string_view nextLines() {
    while (true) {
      if (const void *Newline =
              ::memrchr(Data + Scanned, '\n', End - Scanned)) {
        size_t Stop =
            static_cast<size_t>(static_cast<const char *>(Newline) - Data) + 1;
        std::string_view Lines(Data + Begin, Stop - Begin);
        Begin = Scanned = Stop;
        return Lines;
      }
      Scanned = End;
      if (AtEof) {
        std::string_view Lines(Data + Begin, End - Begin);
        Begin = Scanned = End;
        return Lines;
      }
      refill();
    }
  }

  /// Stream bytes read so far.
  size_t bytesRead() const { return BytesRead; }

private:
  /// Moves the unfinished line to the front (growing a full window) and
  /// reads behind it.
  void refill() {
    if (Begin != 0) {
      std::memmove(Data, Data + Begin, End - Begin);
      End -= Begin;
      Scanned -= Begin;
      Begin = 0;
    }
    if (End == Capacity) {
      char *Grown =
          static_cast<char *>(allocateAligned(2 * Capacity, KernelAlignment));
      std::memcpy(Grown, Data, End);
      deallocateAligned(Data, Capacity, KernelAlignment);
      Data = Grown;
      Capacity *= 2;
    }
    size_t Want = Capacity - End;
    Stream.read(Data + End, static_cast<std::streamsize>(Want));
    size_t Got = static_cast<size_t>(Stream.gcount());
    End += Got;
    BytesRead += Got;
    AtEof = Got < Want;
  }

  std::istream &Stream;
  /// The window's bytes: a mapped buffer (MappedAllocationBytes), so the
  /// freed window returns its pages.
  size_t Capacity;
  char *Data;
  size_t Begin = 0;   ///< first byte not handed out
  size_t Scanned = 0; ///< [Begin, Scanned) holds no '\n'
  size_t End = 0;     ///< one past the last byte read
  size_t BytesRead = 0;
  bool AtEof = false;
};

/// What one body line holds.
enum class LineKind { Skip, Entry, Malformed, OutOfBounds };

/// One part of a window, parsed into its own slice of the entry list: its
/// entries in file order, up to its first bad line.
struct PartParse {
  size_t First = 0; ///< the slice's first index in the entry list
  size_t Count = 0; ///< entries parsed
  LineKind Problem = LineKind::Skip; ///< the bad line's kind, if one stopped it
  std::string_view BadLine;          ///< that line, trimmed
};

/// Most entry lines \p Bytes of whole lines can hold: three characters and
/// a '\n' each, but for a last line without one.
size_t maxEntries(size_t Bytes) { return (Bytes + 1) / 4; }

/// Parses one body line of an \p N-node matrix: comments and blank lines
/// are skipped, fields past the value (or past the column, for pattern)
/// are ignored, and an omitted value reads 1.
LineKind parseBodyLine(std::string_view Line, int64_t N, bool HasValues,
                       CooEntry &Entry, float &Value,
                       std::string_view &Trimmed) {
  Trimmed = trimString(Line);
  if (Trimmed.empty() || Trimmed.front() == '%')
    return LineKind::Skip;
  int64_t R = 0, C = 0;
  double V = 1.0;
  std::string_view Rest = Trimmed;
  bool Ok = parseInt64(popField(Rest), R) && parseInt64(popField(Rest), C);
  if (Ok && HasValues)
    if (std::string_view Field = popField(Rest); !Field.empty())
      Ok = parseDouble(Field, V);
  if (!Ok)
    return LineKind::Malformed;
  if (R < 1 || R > N || C < 1 || C > N)
    return LineKind::OutOfBounds;
  // Matrix Market is 1-based.
  Entry = {static_cast<int32_t>(R - 1), static_cast<int32_t>(C - 1)};
  Value = static_cast<float>(V);
  return LineKind::Entry;
}

/// Parses the lines of \p Text into the entries (and, for a real or
/// integer field, the values) from index Out.First on, until the first bad
/// line or until \p Wanted entries are parsed: no later line can count.
void parseLines(std::string_view Text, int64_t N, bool HasValues,
                size_t Wanted, CooEntry *Entries, float *Values,
                PartParse &Out) {
  [[maybe_unused]] const size_t Capacity = maxEntries(Text.size());
  size_t Count = 0;
  Out.Problem = LineKind::Skip;
  const char *P = Text.data(), *End = P + Text.size();
  while (P < End && Count < Wanted) {
    const void *Newline = std::memchr(P, '\n', static_cast<size_t>(End - P));
    const char *LineEnd = Newline ? static_cast<const char *>(Newline) : End;
    CooEntry Entry;
    float Value = 1.0f;
    std::string_view Trimmed;
    LineKind Kind =
        parseBodyLine(std::string_view(P, static_cast<size_t>(LineEnd - P)), N,
                      HasValues, Entry, Value, Trimmed);
    P = Newline ? LineEnd + 1 : End;
    if (Kind == LineKind::Skip)
      continue;
    if (Kind != LineKind::Entry) {
      Out.Problem = Kind;
      Out.BadLine = Trimmed;
      break;
    }
    assert(Count < Capacity && "entry line shorter than three characters");
    Entries[Out.First + Count] = Entry;
    if (HasValues)
      Values[Out.First + Count] = Value;
    ++Count;
  }
  Out.Count = Count;
}

/// Splits \p Text, whole lines, into \p Parts runs of about equal bytes:
/// \returns Parts + 1 offsets, each just past a '\n' (or at an end).
std::vector<size_t> splitAtLines(std::string_view Text, size_t Parts) {
  std::vector<size_t> Bounds(Parts + 1, Text.size());
  Bounds[0] = 0;
  for (size_t P = 1; P < Parts; ++P) {
    size_t At = std::max(Text.size() / Parts * P, Bounds[P - 1]);
    size_t Newline = Text.find('\n', At);
    Bounds[P] = Newline == std::string_view::npos ? Text.size() : Newline + 1;
  }
  return Bounds;
}

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
  TraceSpan Span("mtx-parse", "graph");
  Window Reader(Stream);
  std::string_view Line;
  if (!Reader.nextLine(Line))
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
  while (Reader.nextLine(Line)) {
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

  // The body, one window at a time: its lines split into parts parsed in
  // parallel, then the parts' entries appended in file order until the
  // count is reached. The first bad line before that fails the read;
  // nothing after the last counted entry is checked. The claimed count is
  // untrusted: it only caps a window's reservation and never sizes one, so
  // a short body fails with the count mismatch, not an allocation.
  ThreadPool &Pool = ThreadPool::get();
  const size_t Threads = static_cast<size_t>(Pool.numThreads());
  std::vector<PartParse> Parsed(Threads);
  std::vector<CooEntry, DefaultInitAllocator<CooEntry>> Coords;
  std::vector<float, DefaultInitAllocator<float>> Values;
  int64_t Seen = 0, Windows = 0;
  while (Seen < Entries) {
    std::string_view Text = Reader.nextLines();
    if (Text.empty())
      break;
    ++Windows;
    // Each part parses into a slice past the entries kept so far, sized for
    // the most entry lines its bytes can hold but for no more entries than
    // the count still misses; nothing is written there but the entries.
    size_t Parts =
        std::clamp<size_t>(Text.size() / MatrixMarketBlockBytes, 1, Threads);
    std::vector<size_t> Bounds = splitAtLines(Text, Parts);
    const size_t Wanted = static_cast<size_t>(Entries - Seen);
    size_t Slots = Coords.size();
    for (size_t P = 0; P < Parts; ++P) {
      Parsed[P].First = Slots;
      Slots += std::min(maxEntries(Bounds[P + 1] - Bounds[P]), Wanted);
    }
    Coords.resize(Slots);
    Values.resize(HasValues ? Slots : 0);
    Pool.parallelForChunks(static_cast<int64_t>(Parts), [&](int64_t Part) {
      size_t P = static_cast<size_t>(Part);
      parseLines(Text.substr(Bounds[P], Bounds[P + 1] - Bounds[P]), Rows,
                 HasValues, Wanted, Coords.data(), Values.data(), Parsed[P]);
    });
    // Close the slices up in file order, up to the claimed count.
    for (size_t P = 0; P < Parts && Seen < Entries; ++P) {
      const PartParse &Part = Parsed[P];
      size_t Take = static_cast<size_t>(
          std::min<int64_t>(static_cast<int64_t>(Part.Count), Entries - Seen));
      size_t To = static_cast<size_t>(Seen);
      if (Part.First != To) {
        std::memmove(Coords.data() + To, Coords.data() + Part.First,
                     Take * sizeof(CooEntry));
        if (HasValues)
          std::memmove(Values.data() + To, Values.data() + Part.First,
                       Take * sizeof(float));
      }
      Seen += static_cast<int64_t>(Take);
      if (Seen == Entries || Part.Problem == LineKind::Skip)
        continue;
      return fail(ErrorMessage, (Part.Problem == LineKind::Malformed
                                     ? "malformed matrix market entry: "
                                     : "matrix market entry out of bounds: ") +
                                    std::string(Part.BadLine));
    }
    Coords.resize(static_cast<size_t>(Seen));
    Values.resize(HasValues ? static_cast<size_t>(Seen) : 0);
  }
  if (Seen != Entries)
    return fail(ErrorMessage, "matrix market entry count mismatch");
  Span.setArg("bytes", static_cast<double>(Reader.bytesRead()));
  Span.setArg("entries", static_cast<double>(Seen));
  Span.setArg("windows", static_cast<double>(Windows));
  Span.setArg("threads", static_cast<double>(Threads));
  Span.end();
  CsrMatrix Adjacency = buildCsr(Rows, Cols, Coords, Values, Symmetric);
  // Free the entry list before the graph's checks run over the CSR.
  Coords = decltype(Coords)();
  Values = decltype(Values)();
  return Graph(Name, std::move(Adjacency));
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
