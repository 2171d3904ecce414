// SimCheck fault-harness driver. Runs one corpus of the seeded fault
// harness over a seed list, and on the first failure prints the full
// violation report plus a minimized one-line reproducer, then exits
// nonzero.
//
// Usage:
//   fuzz_simcheck [--corpus NAME] SEEDSPEC...   run seeds of one corpus
//   fuzz_simcheck --repro '<line>'              replay a SIMCHECK_REPRO line
// NAME is schedule (default), disk, failover or overload. A SEEDSPEC is
// "7", "1-64", or a comma-separated mix; with none, seeds 1..24 run.
// --eager-bug re-introduces the known coalescing bug (checker self-test).
// A malformed, reversed or empty spec exits 2.

#include <cstdio>
#include <string>
#include <vector>

#include "src/check/fuzz.h"

namespace {

int ReplayRepro(const std::string& line, const rover::check::FuzzRunOptions& run) {
  auto plan = rover::check::ParseRepro(line);
  if (!plan.ok()) {
    std::fprintf(stderr, "bad repro line: %s\n", plan.status().message().c_str());
    return 2;
  }
  rover::check::FuzzOutcome outcome = rover::check::RunPlan(*plan, run);
  if (outcome.ok) {
    std::printf("repro passed (corpus %s, seed %llu, %zu actions)\n", plan->corpus->name,
                static_cast<unsigned long long>(plan->seed), plan->actions.size());
    return 0;
  }
  std::printf("%s", outcome.report.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto command = rover::check::ParseFuzzCommand(std::vector<std::string>(argv + 1, argv + argc));
  if (!command.ok()) {
    std::fprintf(stderr, "fuzz_simcheck: %s\n", command.status().message().c_str());
    return 2;
  }
  if (!command->repro.empty()) {
    return ReplayRepro(command->repro, command->run);
  }

  for (uint64_t seed : command->seeds) {
    rover::check::FuzzPlan plan = rover::check::MakePlan(seed, *command->corpus);
    rover::check::FuzzOutcome outcome = rover::check::RunPlan(plan, command->run);
    if (outcome.ok) {
      std::printf("%s seed %-6llu ok    (%zu actions)\n", command->corpus->name,
                  static_cast<unsigned long long>(seed), plan.actions.size());
      continue;
    }
    std::printf("%s seed %-6llu FAIL\n%s", command->corpus->name,
                static_cast<unsigned long long>(seed), outcome.report.c_str());
    std::printf("shrinking...\n");
    rover::check::FuzzPlan shrunk = rover::check::ShrinkPlan(plan, command->run);
    rover::check::FuzzOutcome minimized = rover::check::RunPlan(shrunk, command->run);
    std::printf("%s\n", rover::check::FormatRepro(shrunk).c_str());
    if (!minimized.report.empty()) {
      std::printf("%s", minimized.report.c_str());
    }
    return 1;
  }
  std::printf("all %zu %s seeds clean\n", command->seeds.size(), command->corpus->name);
  return 0;
}
