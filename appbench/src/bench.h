#ifndef APPBENCH_BENCH_H_
#define APPBENCH_BENCH_H_

#include <cstdint>
#include <string>

namespace appbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  // Scratch directory for the appliance's data; emptied and removed after
  // every set-up.
  std::string data_dir;
  // Traced run: file the spans are written to at the end ("" = none).
  std::string span_path;
};

// Runs one workload against an in-process appliance server and prints a
// per-op table followed by the one-line JSON result. Returns the process
// exit code: 0 when every answer was right, 1 when a check failed, 2 when
// the run could not be set up.
int RunWorkload(const RunOptions& options);

}  // namespace appbench

#endif  // APPBENCH_BENCH_H_
