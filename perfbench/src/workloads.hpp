// The three workloads (untraced: the end-to-end numbers) and their parts of
// the layer ledger (traced: the per-layer numbers).
#pragma once

#include "deploy.hpp"
#include "trace.hpp"

namespace perfbench {

void run_batch_week(const Options& options, Sheet& sheet);
void run_live_ingest(const Options& options, Sheet& sheet);
void run_serve_steady(const Options& options, Sheet& sheet);

/// One workload re-composed from its public calls with a span around each,
/// next to an untraced run of the same work.  The traced composition's
/// wall time, less any span that runs on another thread in the untraced
/// program (`excluded_ms`), over the untraced wall time is the tracing
/// overhead.
struct LedgerPart {
  TraceSummary summary;
  double traced_ms = 0.0;
  double untraced_ms = 0.0;
  double excluded_ms = 0.0;

  [[nodiscard]] double overhead_share() const {
    return untraced_ms <= 0.0 ? 0.0 : (traced_ms - excluded_ms) / untraced_ms - 1.0;
  }
};

/// Each fills its layers' metrics into `sheet.layers` and runs its
/// correctness checks.
[[nodiscard]] LedgerPart ledger_batch_week(const Options& options, Sheet& sheet);
[[nodiscard]] LedgerPart ledger_live_ingest(const Options& options, Sheet& sheet);
[[nodiscard]] LedgerPart ledger_serve_steady(const Options& options, Sheet& sheet);

}  // namespace perfbench
