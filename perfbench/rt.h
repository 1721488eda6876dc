#ifndef CAROUSEL_PERFBENCH_RT_H_
#define CAROUSEL_PERFBENCH_RT_H_

#include <string>

#include "common.h"

namespace perfbench {

/// True for the workloads that run on the threaded runtime.
bool IsRtWorkload(const std::string& name);

/// Runs one threaded-runtime workload: end-to-end metrics untraced, or the
/// per-layer ledger when `args.trace`; then the serializability
/// verification run. Every check lands in `report`.
void RunRtWorkload(const Args& args, Report* report);

}  // namespace perfbench

#endif  // CAROUSEL_PERFBENCH_RT_H_
