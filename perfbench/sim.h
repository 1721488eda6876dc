#ifndef CAROUSEL_PERFBENCH_SIM_H_
#define CAROUSEL_PERFBENCH_SIM_H_

#include "common.h"

namespace perfbench {

/// Runs `sim-fig5`: the deterministic simulator at Figure 5 smoke-sweep
/// points (Carousel Fast, unbatched): 1000 tps offered for the end-to-end
/// metrics, plus 6000 tps (the collapse past the knee) when tracing.
void RunSimFig5(const Args& args, Report* report);

}  // namespace perfbench

#endif  // CAROUSEL_PERFBENCH_SIM_H_
