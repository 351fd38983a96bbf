//===- Main.cpp - granii-perfbench entry point -----------------------------===//
//
// The compiled half of the end-to-end benchmark; perfbench/run.py drives it.
//
//   granii-perfbench generate   --kind rmat|community --nodes N --edges E
//                               --seed S --out DIR
//   granii-perfbench serve-warm --graph-dir DIR --model F --kin K --kout K
//                               --param-seed S --requests N --max-seconds T
//                               [--setup-only] [--check-seed S]
//                               [--inject-fault]
//   granii-perfbench train-warm (same flags)
//   granii-perfbench check      --manifest FILE [--inject-fault]
//   granii-perfbench trace      --workload NAME --spans FILE
//                               (the warm flags | --configs FILE)
//
// Kernel threads follow GRANII_NUM_THREADS, which run.py sets.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Layers.h"
#include "Workloads.h"

#include <cstdio>

int main(int Argc, char **Argv) {
  perfbench::Flags Args(Argc, Argv);
  const std::string &Cmd = Args.command();
  if (Cmd == "generate")
    return perfbench::runGenerate(Args);
  if (Cmd == "serve-warm")
    return perfbench::runServeWarm(Args);
  if (Cmd == "train-warm")
    return perfbench::runTrainWarm(Args);
  if (Cmd == "check")
    return perfbench::runCheck(Args);
  if (Cmd == "trace")
    return perfbench::runTrace(Args);
  std::fprintf(stderr, "usage: granii-perfbench "
                       "generate|serve-warm|train-warm|check|trace [flags]\n");
  return 2;
}
