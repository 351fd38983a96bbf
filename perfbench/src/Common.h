//===- Common.h - Shared helpers of the benchmark binary --------*- C++ -*-===//
///
/// \file
/// Small utilities every benchmark subcommand uses: monotonic time, the
/// process's CPU time and peak resident set, a flat JSON object writer for
/// the machine-readable result line, and a hash of raw output bytes for the
/// bitwise repeatability checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double nowSeconds();

/// User + system CPU seconds of this process, all threads included.
double processCpuSeconds();

/// Peak resident set (VmHWM) of this process in KiB; 0 if unavailable.
int64_t peakRssKb();

/// Resets the kernel's peak-RSS watermark to the current RSS, so a later
/// peakRssKb() covers only what ran in between. \returns false where the
/// kernel does not support it (the watermark then keeps its history).
bool resetPeakRss();

/// Milliseconds of CPU time the hypervisor stole from this machine, summed
/// over all CPUs (/proc/stat, 10 ms resolution); 0 if unavailable.
double stolenMs();

/// FNV-1a over raw bytes: the bitwise-identity fingerprint of an output.
uint64_t hashBytes(const void *Data, size_t Size);

/// Whole file as a string; exits with a message when it cannot be read.
std::string readFileOrDie(const std::string &Path);

/// Prints "perfbench: <Msg>" to stderr and exits with status 2.
[[noreturn]] void die(const std::string &Msg);

/// Builds one flat-ish JSON object: scalars, strings, number arrays and
/// nested objects. Keys keep insertion order.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double Value);
  JsonObject &integer(const std::string &Key, int64_t Value);
  JsonObject &boolean(const std::string &Key, bool Value);
  JsonObject &str(const std::string &Key, const std::string &Value);
  JsonObject &nums(const std::string &Key, const std::vector<double> &Values);
  JsonObject &object(const std::string &Key, const JsonObject &Value);
  std::string text() const;

private:
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Command-line flags of the form --key value or --key=value, plus bare
/// --switches; the first non-flag argument is the subcommand.
class Flags {
public:
  Flags(int Argc, char **Argv);
  const std::string &command() const { return Command; }
  bool has(const std::string &Key) const { return Values.count(Key) != 0; }
  std::string str(const std::string &Key) const;
  int64_t integer(const std::string &Key) const;
  int64_t integer(const std::string &Key, int64_t Default) const;
  double real(const std::string &Key) const;

private:
  std::string Command;
  std::map<std::string, std::string> Values;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
