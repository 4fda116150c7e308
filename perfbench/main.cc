// perfbench: the repository's benchmark binary. Runs one named workload
// against a 4-host x 4-core FaasmCluster, checks its outputs, and prints a
// human report followed by one JSON result line (end-to-end metrics, or
// per-layer metrics with --trace 1). See README.md.
//
//   perfbench --workload infer|sgd|chain --seed <n> --seconds <n> --trace 0|1
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload infer|sgd|chain --seed <n> --seconds <1-60> --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace faasm::perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseUint(value, &number) && number >= 1 && number <= 60) {
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else {
      return Usage(argv[0]);
    }
  }

  Report report;
  if (options.workload == "infer") {
    RunInfer(options, report);
  } else if (options.workload == "sgd") {
    RunSgd(options, report);
  } else if (options.workload == "chain") {
    RunChain(options, report);
  } else {
    return Usage(argv[0]);
  }
  report.Print(options.trace);
  return 0;
}
