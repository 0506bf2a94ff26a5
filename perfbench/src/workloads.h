#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Unified Fit over SMD-profile services, then batch Score of long
/// labelled test splits (the paper's training/inference efficiency run).
void RunFitScore(const Options& options, Outcome* outcome);
/// In-process ServeFrontend with a HistoryStore: thousands of staggered
/// tumbling-window tenants, closed-loop then open-loop, plus fleet
/// TopTenants queries on the live store.
void RunServeTumbling(const Options& options, Outcome* outcome);
/// The same traffic over WireClient -> mace_router -> mace_serve_backend.
void RunWireRouter(const Options& options, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
