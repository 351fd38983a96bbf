//===- Wire.cpp - Framed binary wire format -----------------------------------===//

#include "serve/Wire.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

using namespace granii;
using namespace granii::serve;

void WireWriter::putF64(double V) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Bits);
}

void WireWriter::putString(const std::string &S) {
  putU32(static_cast<uint32_t>(S.size()));
  Bytes.insert(Bytes.end(), S.begin(), S.end());
}

void WireWriter::putFloats(std::span<const float> Values) {
  putU64(Values.size());
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory bytes already are the wire bytes.
    const auto *Raw = reinterpret_cast<const uint8_t *>(Values.data());
    Bytes.insert(Bytes.end(), Raw, Raw + Values.size_bytes());
  } else {
    Bytes.reserve(Bytes.size() + Values.size_bytes());
    for (float V : Values) {
      uint32_t Bits = 0;
      std::memcpy(&Bits, &V, sizeof(Bits));
      putU32(Bits);
    }
  }
}

bool WireReader::need(size_t Count, const char *What) {
  if (!Error.empty())
    return false;
  if (Data.size() - Offset < Count) {
    Error = "truncated payload at byte " + std::to_string(Offset) +
            ": need " + std::to_string(Count) + " byte(s) for " + What +
            ", have " + std::to_string(Data.size() - Offset);
    return false;
  }
  return true;
}

uint64_t WireReader::getLe(int Width, const char *What) {
  if (!need(static_cast<size_t>(Width), What))
    return 0;
  uint64_t V = 0;
  for (int I = 0; I < Width; ++I)
    V |= static_cast<uint64_t>(Data[Offset + static_cast<size_t>(I)])
         << (8 * I);
  Offset += static_cast<size_t>(Width);
  return V;
}

uint8_t WireReader::getU8() { return static_cast<uint8_t>(getLe(1, "u8")); }
uint16_t WireReader::getU16() { return static_cast<uint16_t>(getLe(2, "u16")); }
uint32_t WireReader::getU32() { return static_cast<uint32_t>(getLe(4, "u32")); }
uint64_t WireReader::getU64() { return getLe(8, "u64"); }

double WireReader::getF64() {
  uint64_t Bits = getLe(8, "f64");
  double V = 0.0;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

std::string WireReader::getString() {
  uint32_t Len = getU32();
  if (!need(Len, "string body"))
    return std::string();
  std::string S(reinterpret_cast<const char *>(Data.data() + Offset), Len);
  Offset += Len;
  return S;
}

std::vector<float> WireReader::getFloats() {
  uint64_t Count = getU64();
  // Bound by the remaining bytes before allocating: a corrupt count must
  // not drive the allocation.
  if (ok() && Count > (Data.size() - Offset) / 4) {
    fail("float array count " + std::to_string(Count) +
         " exceeds remaining payload");
    return {};
  }
  if (!ok())
    return {};
  std::vector<float> Values(static_cast<size_t>(Count));
  if constexpr (std::endian::native == std::endian::little) {
    size_t Bytes = Values.size() * sizeof(float);
    if (Bytes != 0) // memcpy must not see the null data() of an empty vector
      std::memcpy(Values.data(), Data.data() + Offset, Bytes);
    Offset += Bytes;
  } else {
    for (float &V : Values) {
      uint32_t Bits = getU32();
      std::memcpy(&V, &Bits, sizeof(V));
    }
  }
  return Values;
}

void WireReader::fail(const std::string &Message) {
  if (Error.empty())
    Error = "payload error at byte " + std::to_string(Offset) + ": " +
            Message;
}

namespace {

/// Writes all \p Size bytes. On a socket the writes pass MSG_NOSIGNAL: a
/// peer that hung up is an EPIPE error for this connection, not a SIGPIPE
/// that terminates the whole process. Other descriptors (pipes) are
/// written with write().
bool writeAll(int Fd, const uint8_t *Data, size_t Size, std::string *Err) {
  size_t Done = 0;
  bool Socket = true;
  while (Done < Size) {
    ssize_t N = Socket ? ::send(Fd, Data + Done, Size - Done, MSG_NOSIGNAL)
                       : ::write(Fd, Data + Done, Size - Done);
    if (N < 0 && Socket && errno == ENOTSOCK) {
      Socket = false;
      continue;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Err)
        // NOLINTNEXTLINE(concurrency-mt-unsafe): errno text, error path
        *Err = std::string("write failed: ") + std::strerror(errno);
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

/// Reads exactly \p Size bytes. \returns Ok, Eof (zero bytes read — the
/// peer closed cleanly), or Error (short read mid-buffer or IO failure).
ReadStatus readAll(int Fd, uint8_t *Data, size_t Size, std::string *Err) {
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::read(Fd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Err)
        // NOLINTNEXTLINE(concurrency-mt-unsafe): errno text, error path
        *Err = std::string("read failed: ") + std::strerror(errno);
      return ReadStatus::Error;
    }
    if (N == 0) {
      if (Done == 0)
        return ReadStatus::Eof;
      if (Err)
        *Err = "connection closed mid-frame (" + std::to_string(Done) +
               " of " + std::to_string(Size) + " bytes)";
      return ReadStatus::Error;
    }
    Done += static_cast<size_t>(N);
  }
  return ReadStatus::Ok;
}

} // namespace

bool granii::serve::writeFrame(int Fd, uint16_t Verb,
                               std::span<const uint8_t> Payload,
                               std::string *Err) {
  if (Payload.size() > MaxPayloadBytes) {
    if (Err)
      *Err = "frame payload of " + std::to_string(Payload.size()) +
             " bytes exceeds the " + std::to_string(MaxPayloadBytes) +
             "-byte cap";
    return false;
  }
  WireWriter Header;
  Header.putU32(FrameMagic);
  Header.putU16(ProtocolVersion);
  Header.putU16(Verb);
  Header.putU32(static_cast<uint32_t>(Payload.size()));
  if (!writeAll(Fd, Header.bytes().data(), Header.bytes().size(), Err))
    return false;
  return writeAll(Fd, Payload.data(), Payload.size(), Err);
}

bool granii::serve::decodeFrameHeader(std::span<const uint8_t> Header,
                                      uint16_t &Verb, uint32_t &Length,
                                      std::string *Err) {
  WireReader Reader(Header.first(std::min(Header.size(), FrameHeaderBytes)));
  uint32_t Magic = Reader.getU32();
  uint16_t Version = Reader.getU16();
  Verb = Reader.getU16();
  Length = Reader.getU32();
  if (!Reader.ok()) {
    if (Err)
      *Err = "frame header: " + Reader.error();
    return false;
  }
  if (Magic != FrameMagic) {
    if (Err)
      *Err = "bad frame magic (not a granii-serve stream)";
    return false;
  }
  if (Version != ProtocolVersion) {
    if (Err)
      *Err = "unsupported protocol version " + std::to_string(Version) +
             " (expected " + std::to_string(ProtocolVersion) + ")";
    return false;
  }
  if (Length > MaxPayloadBytes) {
    if (Err)
      *Err = "frame payload length " + std::to_string(Length) +
             " exceeds the " + std::to_string(MaxPayloadBytes) + "-byte cap";
    return false;
  }
  return true;
}

ReadStatus granii::serve::readFrame(int Fd, Frame &Out, std::string *Err) {
  uint8_t Header[FrameHeaderBytes];
  ReadStatus Status = readAll(Fd, Header, sizeof(Header), Err);
  if (Status != ReadStatus::Ok)
    return Status;
  uint16_t Verb = 0;
  uint32_t Length = 0;
  if (!decodeFrameHeader(Header, Verb, Length, Err))
    return ReadStatus::Error;
  Out.Verb = Verb;
  Out.Payload.clear();
  Out.Payload.reserve(Length);
  while (Out.Payload.size() < Length) {
    const size_t Done = Out.Payload.size();
    Out.Payload.resize(Done + std::min(FrameReadChunkBytes, Length - Done));
    Status = readAll(Fd, Out.Payload.data() + Done, Out.Payload.size() - Done,
                     Err);
    if (Status == ReadStatus::Eof) {
      if (Err)
        *Err = "connection closed after " + std::to_string(Done) + " of " +
               std::to_string(Length) + " frame payload bytes";
      return ReadStatus::Error;
    }
    if (Status != ReadStatus::Ok)
      return Status;
  }
  return ReadStatus::Ok;
}
