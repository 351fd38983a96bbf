//===- Wire.h - Framed binary wire format -----------------------*- C++ -*-===//
///
/// \file
/// The byte-level layer of the granii-serve protocol: a checked binary
/// encoder/decoder plus length-prefixed framing over a file descriptor.
///
/// Every message travels as one frame:
///
///   offset  size  field
///   0       4     magic "GRNI" (0x47 0x52 0x4e 0x49 on the wire)
///   4       2     protocol version, little-endian (currently 3)
///   6       2     verb, little-endian (serve::Verb)
///   8       4     payload length in bytes, little-endian
///   12      N     payload (verb-specific, see Protocol.h)
///
/// All integers are little-endian. Payloads are capped at 1 GiB so a
/// corrupt or hostile length field cannot drive an allocation of arbitrary
/// size. Decoding is checked: every read is bounds-checked and a truncated
/// or malformed buffer yields a positioned error message, never an
/// exception or an out-of-bounds read.
///
//===----------------------------------------------------------------------===//

#ifndef GRANII_SERVE_WIRE_H
#define GRANII_SERVE_WIRE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace granii {
namespace serve {

/// Frame magic, as the little-endian u32 whose bytes spell "GRNI".
inline constexpr uint32_t FrameMagic = 0x494e5247u;
/// Protocol version carried by every frame.
inline constexpr uint16_t ProtocolVersion = 3;
/// Upper bound on one frame's payload; larger lengths are a protocol error.
inline constexpr uint32_t MaxPayloadBytes = 1u << 30;

/// Appends little-endian primitives to a byte buffer. Strings and float
/// arrays are length-prefixed so the reader never scans for terminators.
class WireWriter {
public:
  void putU8(uint8_t V) { Bytes.push_back(V); }
  void putU16(uint16_t V) { putLe(V, 2); }
  void putU32(uint32_t V) { putLe(V, 4); }
  void putU64(uint64_t V) { putLe(V, 8); }
  void putI64(int64_t V) { putU64(static_cast<uint64_t>(V)); }
  /// Doubles travel as their IEEE-754 bit pattern: exact round trip.
  void putF64(double V);
  /// u32 byte length + UTF-8 bytes (no terminator).
  void putString(const std::string &S);
  /// u64 element count + raw little-endian float payload (one bulk copy on
  /// little-endian hosts).
  void putFloats(std::span<const float> Values);

  /// One encoding per message field type (Protocol.h's field walks): a
  /// bool travels as one byte, 0 or 1.
  void put(const std::string &S) { putString(S); }
  void put(int64_t V) { putI64(V); }
  void put(uint64_t V) { putU64(V); }
  void put(bool V) { putU8(V ? 1 : 0); }
  void put(double V) { putF64(V); }
  void put(const std::vector<float> &Values) { putFloats(Values); }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  void putLe(uint64_t V, int Width) {
    for (int I = 0; I < Width; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked reader over one frame's payload. The first failed read
/// latches an error (with the byte offset it happened at); subsequent reads
/// return zero values so decoders can run straight-line and check ok()
/// once at the end.
class WireReader {
public:
  explicit WireReader(std::span<const uint8_t> Data) : Data(Data) {}

  uint8_t getU8();
  uint16_t getU16();
  uint32_t getU32();
  uint64_t getU64();
  int64_t getI64() { return static_cast<int64_t>(getU64()); }
  double getF64();
  /// Rejects lengths that exceed the remaining payload (a corrupt length
  /// can therefore never drive an oversized allocation).
  std::string getString();
  /// Same bound as getString, checked before the one allocation; the
  /// payload is then copied in bulk on little-endian hosts.
  std::vector<float> getFloats();

  /// The decoding of each WireWriter::put: any nonzero byte reads as true.
  void get(std::string &S) { S = getString(); }
  void get(int64_t &V) { V = getI64(); }
  void get(uint64_t &V) { V = getU64(); }
  void get(bool &V) { V = getU8() != 0; }
  void get(double &V) { V = getF64(); }
  void get(std::vector<float> &Values) { Values = getFloats(); }

  bool ok() const { return Error.empty(); }
  /// Whole payload consumed and no read failed.
  bool atEnd() const { return ok() && Offset == Data.size(); }
  const std::string &error() const { return Error; }
  size_t offset() const { return Offset; }

  /// Records a decode error at the current offset (used by decoders for
  /// semantic checks, e.g. an unknown enum value).
  void fail(const std::string &Message);

private:
  bool need(size_t Count, const char *What);
  uint64_t getLe(int Width, const char *What);

  std::span<const uint8_t> Data;
  size_t Offset = 0;
  std::string Error;
};

/// One decoded frame.
struct Frame {
  uint16_t Verb = 0;
  std::vector<uint8_t> Payload;
};

/// Writes a frame to \p Fd, looping over partial writes and EINTR.
/// \returns false with \p Err set on IO failure or an oversized payload.
bool writeFrame(int Fd, uint16_t Verb, std::span<const uint8_t> Payload,
                std::string *Err = nullptr);

/// Bytes of the header in front of every frame's payload.
inline constexpr size_t FrameHeaderBytes = 12;

/// Validates one frame header, the first FrameHeaderBytes of \p Header
/// (magic, version, payload cap), and extracts its verb and payload length.
/// \returns false with \p Err set on a short buffer or a header readFrame
/// rejects.
bool decodeFrameHeader(std::span<const uint8_t> Header, uint16_t &Verb,
                       uint32_t &Length, std::string *Err = nullptr);

/// Outcome of readFrame: a frame, an orderly end-of-stream (peer closed
/// between frames), or an error (bad magic/version/length, truncation
/// mid-frame, IO failure).
enum class ReadStatus { Ok, Eof, Error };

/// Bytes of payload readFrame zero-extends its buffer by before each read:
/// the header's length is only reserved, so resident memory tracks the
/// bytes that arrive, not the bytes a header claims.
inline constexpr size_t FrameReadChunkBytes = size_t{1} << 20;

/// Reads one frame from \p Fd, validating its header with
/// decodeFrameHeader.
ReadStatus readFrame(int Fd, Frame &Out, std::string *Err = nullptr);

} // namespace serve
} // namespace granii

#endif // GRANII_SERVE_WIRE_H
