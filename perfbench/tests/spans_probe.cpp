// Records a fixed set of spans with explicit timestamps, for test_run.py:
// nested spans on the main thread, one root span on each of two threads,
// and nested spans in a forked child that leaves through _exit. Every
// process writes its totals to the directory given as the only argument.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "spans.hpp"

namespace spans = perfbench::spans;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: spans_probe DIR\n");
    return 2;
  }
  const std::string directory = argv[1];

  // sim.run [0,100) holds replay.checkpoint [10,40) and [50,60); the first
  // holds replay.encode [20,30).
  spans::open(spans::kSimRun, 0);
  spans::open(spans::kCheckpoint, 10);
  spans::open(spans::kEncode, 20);
  spans::close(30, 7);
  spans::close(40);
  spans::open(spans::kCheckpoint, 50);
  spans::close(60);
  spans::close(100);

  for (int t = 0; t < 2; ++t) {
    std::thread([] {
      spans::open(spans::kSimRun, 1000);
      spans::close(1005);
    }).join();
  }

  // The child must not report the parent's spans, only its own:
  // verify.explore [0,50) holding statechart.dispatch [5,25).
  const pid_t child = ::fork();
  if (child == 0) {
    spans::open(spans::kExplore, 0);
    spans::open(spans::kDispatch, 5);
    spans::close(25);
    spans::close(50);
    const bool written = spans::write(directory);
    ::_exit(written ? 0 : 1);
  }
  int status = 0;
  if (child < 0 || ::waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "spans_probe: forked child failed\n");
    return 1;
  }
  return spans::write(directory) ? 0 : 1;
}
