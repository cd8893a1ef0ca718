// The appliance benchmark program.
//
//   appbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --data-dir <dir> [--span-out <file>]
//   appbench selftest
//
// `run` prints a per-op table and, as its last line, the JSON result.
// `selftest` checks the generator and the answer checker without running
// the program. appbench/run.py builds this binary and calls it.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"

namespace appbench {
int RunSelfTest();
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: appbench run --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --data-dir <dir> "
               "[--span-out <file>]\n"
               "       appbench selftest\n");
  return 2;
}

// A run that has not finished after this long is reported and ended with
// exit code 3. run.py's own timeout, a few seconds longer, catches a
// process wedged on exit.
constexpr double kWatchdogSeconds = 170;

// Turns a hang into a failed run: if the run has not finished within the
// limit, report it and end the process with a non-zero code.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr,
                         "appbench: watchdog: run still going after %.0f s\n",
                         seconds);
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "selftest") return appbench::RunSelfTest();
  if (command != "run") return Usage();

  appbench::RunOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--span-out") {
      options.span_path = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (options.workload.empty() || options.data_dir.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  Watchdog watchdog(kWatchdogSeconds);
  return appbench::RunWorkload(options);
}
