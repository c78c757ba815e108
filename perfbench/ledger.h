// Layer ledger of the benchmark's traced run.
//
// The traced run times each call into a public entry point (Recommend,
// Submit, Pump) from the benchmark's own code, wraps the what-if backend
// in a timing decorator, and reads the spans the library already records
// while obs::Enabled(). TracedCall::Close() then splits the wall time of
// one call into per-layer self time: every instant goes to the deepest
// layer that has a span open on any thread at that instant, and an instant
// no span covers is unattributed. No tracing is added inside the library.

#ifndef IDXSEL_PERFBENCH_LEDGER_H_
#define IDXSEL_PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "costmodel/what_if.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// Nanoseconds on the clock the library's spans use.
uint64_t NowNs();

/// Layers of the ledger, shallowest first: a deeper layer's span takes the
/// instants it covers away from every shallower one.
enum Layer : size_t {
  kAdvisor = 0,  ///< the library's "advisor.recommend" span
  kShard,        ///< the same span on the sharded H6 path
  kCore,         ///< "h6.run" / "h6.round" spans (category "selector")
  kCophy,        ///< "cophy.build_problem" / "cophy.solve"
  kMip,          ///< "mip.solve"
  kCostmodel,    ///< what-if backend calls (the timing decorator)
  kNumLayers,
};

const char* LayerName(Layer layer);

struct Interval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Collects intervals from any number of threads without a shared lock on
/// the recording path: each thread appends to its own buffer.
class IntervalSink {
 public:
  void Record(uint64_t start_ns, uint64_t end_ns);

  /// Moves out everything recorded so far. No Record() may run
  /// concurrently (callers drain between calls into the library).
  std::vector<Interval> Drain();

 private:
  struct Buffer {
    std::vector<Interval> items;
  };
  Buffer* Local();

  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// The process's sink for what-if backend calls.
IntervalSink& BackendSink();

/// Switches the timing of TimingBackend calls on or off (off at start).
void EnableBackendTiming(bool on);

/// WhatIfBackend decorator that, while timing is enabled, times every call
/// into `inner` and records it in BackendSink(). Answers are passed
/// through unchanged.
class TimingBackend : public idxsel::costmodel::WhatIfBackend {
 public:
  explicit TimingBackend(std::unique_ptr<idxsel::costmodel::WhatIfBackend>
                             owned)
      : owned_(std::move(owned)), inner_(owned_.get()) {}
  explicit TimingBackend(const idxsel::costmodel::WhatIfBackend* inner)
      : inner_(inner) {}

  double BaseCost(idxsel::costmodel::QueryId j) const override;
  double CostWithIndex(idxsel::costmodel::QueryId j,
                       const idxsel::costmodel::Index& k) const override;
  double CostWithConfig(
      idxsel::costmodel::QueryId j,
      const idxsel::costmodel::IndexConfig& config) const override;
  double IndexMemory(const idxsel::costmodel::Index& k) const override;
  double MaintenanceCost(idxsel::costmodel::QueryId j,
                         const idxsel::costmodel::Index& k) const override;

 private:
  std::unique_ptr<idxsel::costmodel::WhatIfBackend> owned_;
  const idxsel::costmodel::WhatIfBackend* inner_;
};

/// Per-layer wall time accumulated over traced calls.
struct LayerTimes {
  std::array<double, kNumLayers> self_ms{};       ///< ledger self time
  std::array<double, kNumLayers> inclusive_ms{};  ///< union of the spans
  /// Union of the spans of each library span name ("h6.run", ...).
  std::map<std::string, double> span_ms;
  double boundary_ms = 0.0;      ///< wall time of the timed calls
  double unattributed_ms = 0.0;  ///< boundary time no span covers
  uint64_t backend_calls = 0;    ///< decorator-observed calls

  void Add(const LayerTimes& other);
};

/// One traced call into the library: open it right before the call, close
/// it right after. Close() drains the backend sink and the library's
/// tracer and charges the call's wall time to the layers.
class TracedCall {
 public:
  TracedCall();
  /// `sharded`: the call ran the sharded H6 path, so its advisor span is
  /// charged to the shard layer.
  void Close(bool sharded, LayerTimes* into);

  /// Counter deltas (process-wide registry) over the call.
  const std::map<std::string, uint64_t>& counters() const {
    return counters_;
  }

 private:
  uint64_t start_ns_ = 0;
  size_t trace_mark_ = 0;
  idxsel::obs::MetricsSnapshot before_;
  std::map<std::string, uint64_t> counters_;
};

}  // namespace perfbench

#endif  // IDXSEL_PERFBENCH_LEDGER_H_
