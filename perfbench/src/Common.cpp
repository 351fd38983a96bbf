//===- Common.cpp - Shared helpers of the benchmark binary -----------------===//

#include "Common.h"

#include "support/Str.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  rusage Usage{};
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Secs(Usage.ru_utime) + Secs(Usage.ru_stime);
}

int64_t peakRssKb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line)) {
    if (Line.rfind("VmHWM:", 0) != 0)
      continue;
    int64_t Kb = 0;
    size_t Pos = Line.find_first_of("0123456789");
    if (Pos != std::string::npos)
      std::from_chars(Line.data() + Pos, Line.data() + Line.size(), Kb);
    return Kb;
  }
  return 0;
}

bool resetPeakRss() {
  // "5" resets the peak-RSS watermark (Linux >= 4.0).
  std::ofstream ClearRefs("/proc/self/clear_refs");
  if (!ClearRefs)
    return false;
  ClearRefs << "5";
  ClearRefs.flush();
  return static_cast<bool>(ClearRefs);
}

double stolenMs() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  int64_t Field = 0, Steal = 0;
  Stat >> Cpu; // "cpu": the all-CPU line; steal is its 8th number
  for (int I = 0; I < 8 && Stat >> Field; ++I)
    Steal = Field;
  return static_cast<double>(Steal) * 1e3 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

uint64_t hashBytes(const void *Data, size_t Size) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// JsonObject
//===----------------------------------------------------------------------===//

namespace {

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

std::string jsonString(const std::string &Value) {
  std::string Out = "\"";
  for (char C : Value) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

} // namespace

JsonObject &JsonObject::num(const std::string &Key, double Value) {
  Fields.emplace_back(Key, jsonNumber(Value));
  return *this;
}

JsonObject &JsonObject::integer(const std::string &Key, int64_t Value) {
  Fields.emplace_back(Key, std::to_string(Value));
  return *this;
}

JsonObject &JsonObject::boolean(const std::string &Key, bool Value) {
  Fields.emplace_back(Key, Value ? "true" : "false");
  return *this;
}

JsonObject &JsonObject::str(const std::string &Key, const std::string &Value) {
  Fields.emplace_back(Key, jsonString(Value));
  return *this;
}

JsonObject &JsonObject::nums(const std::string &Key,
                             const std::vector<double> &Values) {
  std::string Text = "[";
  for (size_t I = 0; I < Values.size(); ++I)
    Text += (I ? "," : "") + jsonNumber(Values[I]);
  Fields.emplace_back(Key, Text + "]");
  return *this;
}

JsonObject &JsonObject::object(const std::string &Key,
                               const JsonObject &Value) {
  Fields.emplace_back(Key, Value.text());
  return *this;
}

std::string JsonObject::text() const {
  std::string Out = "{";
  for (size_t I = 0; I < Fields.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Fields[I].first) + ": " +
           Fields[I].second;
  return Out + "}";
}

//===----------------------------------------------------------------------===//
// Flags
//===----------------------------------------------------------------------===//

Flags::Flags(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      if (!Command.empty())
        die("unexpected argument '" + Arg + "'");
      Command = Arg;
      continue;
    }
    Arg.erase(0, 2);
    if (size_t Eq = Arg.find('='); Eq != std::string::npos) {
      Values[Arg.substr(0, Eq)] = Arg.substr(Eq + 1);
    } else if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0) {
      Values[Arg] = Argv[++I];
    } else {
      Values[Arg] = "";
    }
  }
}

std::string Flags::str(const std::string &Key) const {
  auto It = Values.find(Key);
  if (It == Values.end())
    die("missing --" + Key);
  return It->second;
}

int64_t Flags::integer(const std::string &Key) const {
  std::string Text = str(Key);
  int64_t Value = 0;
  if (!granii::parseInt64(Text, Value))
    die("--" + Key + " expects an integer, got '" + Text + "'");
  return Value;
}

int64_t Flags::integer(const std::string &Key, int64_t Default) const {
  return has(Key) ? integer(Key) : Default;
}

double Flags::real(const std::string &Key) const {
  std::string Text = str(Key);
  double Value = 0.0;
  if (!granii::parseDouble(Text, Value))
    die("--" + Key + " expects a number, got '" + Text + "'");
  return Value;
}

} // namespace perfbench
