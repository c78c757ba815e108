#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <utility>

#include "obs/runtime.h"

namespace perfbench {

uint64_t NowNs() { return idxsel::obs::MonotonicNanos(); }

const char* LayerName(Layer layer) {
  switch (layer) {
    case kAdvisor:
      return "advisor";
    case kShard:
      return "shard";
    case kCore:
      return "core";
    case kCophy:
      return "cophy";
    case kMip:
      return "mip";
    case kCostmodel:
      return "costmodel";
    case kNumLayers:
      break;
  }
  return "?";
}

void IntervalSink::Record(uint64_t start_ns, uint64_t end_ns) {
  Local()->items.push_back({start_ns, end_ns});
}

IntervalSink::Buffer* IntervalSink::Local() {
  // One sink per process (BackendSink), so one cached buffer per thread.
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
  }
  return local;
}

std::vector<Interval> IntervalSink::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Interval> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->items.begin(), buffer->items.end());
    buffer->items.clear();
  }
  return out;
}

IntervalSink& BackendSink() {
  static IntervalSink sink;
  return sink;
}

namespace {

std::atomic<bool> backend_timing{false};

template <typename Fn>
double Timed(Fn&& fn) {
  if (!backend_timing.load(std::memory_order_relaxed)) return fn();
  const uint64_t start = NowNs();
  const double value = fn();
  BackendSink().Record(start, NowNs());
  return value;
}

}  // namespace

void EnableBackendTiming(bool on) {
  backend_timing.store(on, std::memory_order_relaxed);
}

double TimingBackend::BaseCost(idxsel::costmodel::QueryId j) const {
  return Timed([&] { return inner_->BaseCost(j); });
}
double TimingBackend::CostWithIndex(idxsel::costmodel::QueryId j,
                                    const idxsel::costmodel::Index& k) const {
  return Timed([&] { return inner_->CostWithIndex(j, k); });
}
double TimingBackend::CostWithConfig(
    idxsel::costmodel::QueryId j,
    const idxsel::costmodel::IndexConfig& config) const {
  return Timed([&] { return inner_->CostWithConfig(j, config); });
}
double TimingBackend::IndexMemory(const idxsel::costmodel::Index& k) const {
  return Timed([&] { return inner_->IndexMemory(k); });
}
double TimingBackend::MaintenanceCost(idxsel::costmodel::QueryId j,
                                      const idxsel::costmodel::Index& k)
    const {
  return Timed([&] { return inner_->MaintenanceCost(j, k); });
}

void LayerTimes::Add(const LayerTimes& other) {
  for (size_t l = 0; l < kNumLayers; ++l) {
    self_ms[l] += other.self_ms[l];
    inclusive_ms[l] += other.inclusive_ms[l];
  }
  for (const auto& [name, ms] : other.span_ms) span_ms[name] += ms;
  boundary_ms += other.boundary_ms;
  unattributed_ms += other.unattributed_ms;
  backend_calls += other.backend_calls;
}

namespace {

struct LayerSpan {
  uint64_t start_ns;
  uint64_t end_ns;
  size_t layer;
  const char* name;  ///< library span name, or nullptr for backend calls
};

/// Total length of the union of `spans` that `keep` selects; `spans` must
/// be sorted by start.
template <typename Keep>
uint64_t UnionNs(const std::vector<LayerSpan>& spans, Keep keep) {
  uint64_t covered = 0;
  uint64_t reach = 0;
  for (const LayerSpan& s : spans) {
    if (!keep(s)) continue;
    const uint64_t from = std::max(s.start_ns, reach);
    if (s.end_ns > from) covered += s.end_ns - from;
    reach = std::max(reach, s.end_ns);
  }
  return covered;
}

/// Ledger layer of a library span; kNumLayers for spans the ledger does
/// not use.
size_t LayerOf(const idxsel::obs::SpanRecord& span, bool sharded) {
  const char* category = span.category;
  if (std::strcmp(category, "advisor") == 0) {
    return sharded ? kShard : kAdvisor;
  }
  if (std::strcmp(category, "selector") == 0) return kCore;
  if (std::strcmp(category, "cophy") == 0) return kCophy;
  if (std::strcmp(category, "mip") == 0) return kMip;
  return kNumLayers;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

TracedCall::TracedCall()
    : trace_mark_(idxsel::obs::Tracer::Default().size()),
      before_(idxsel::obs::Registry::Default().Snapshot()) {
  start_ns_ = NowNs();
}

void TracedCall::Close(bool sharded, LayerTimes* into) {
  const uint64_t end_ns = NowNs();
  counters_ = idxsel::obs::SnapshotDelta(
                  before_, idxsel::obs::Registry::Default().Snapshot())
                  .counters;
  idxsel::obs::Tracer& tracer = idxsel::obs::Tracer::Default();
  const std::vector<idxsel::obs::SpanRecord> records =
      tracer.SnapshotSince(trace_mark_);
  tracer.Clear();
  const std::vector<Interval> backend = BackendSink().Drain();

  std::vector<LayerSpan> spans;
  const auto add = [&](uint64_t s, uint64_t e, size_t layer,
                       const char* name) {
    s = std::max(s, start_ns_);
    e = std::min(e, end_ns);
    if (layer < kNumLayers && s < e) spans.push_back({s, e, layer, name});
  };
  for (const idxsel::obs::SpanRecord& r : records) {
    add(r.start_ns, r.start_ns + r.duration_ns, LayerOf(r, sharded), r.name);
  }
  for (const Interval& b : backend) {
    add(b.start_ns, b.end_ns, kCostmodel, nullptr);
  }

  LayerTimes t;
  t.boundary_ms = Ms(end_ns - start_ns_);
  t.backend_calls = backend.size();

  // Inclusive time: the union of each layer's spans, and of each span name.
  std::sort(spans.begin(), spans.end(),
            [](const LayerSpan& a, const LayerSpan& b) {
              return a.start_ns < b.start_ns;
            });
  std::set<std::string> names;
  for (size_t l = 0; l < kNumLayers; ++l) {
    t.inclusive_ms[l] =
        Ms(UnionNs(spans, [l](const LayerSpan& s) { return s.layer == l; }));
  }
  for (const LayerSpan& s : spans) {
    if (s.name != nullptr) names.insert(s.name);
  }
  for (const std::string& name : names) {
    t.span_ms[name] = Ms(UnionNs(spans, [&name](const LayerSpan& s) {
      return s.name != nullptr && name == s.name;
    }));
  }

  // Self time: sweep the boundary; each segment goes to the deepest layer
  // with an open span, or to "unattributed" when none is open.
  struct Event {
    uint64_t time;
    bool opens;
    size_t layer;
    bool operator<(const Event& o) const {
      return time != o.time ? time < o.time : opens < o.opens;
    }
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (const LayerSpan& s : spans) {
    events.push_back({s.start_ns, true, s.layer});
    events.push_back({s.end_ns, false, s.layer});
  }
  std::sort(events.begin(), events.end());
  std::array<uint64_t, kNumLayers> open{};
  std::array<uint64_t, kNumLayers> self{};
  uint64_t unattributed = 0;
  uint64_t cursor = start_ns_;
  const auto charge = [&](uint64_t until) {
    if (until <= cursor) return;
    size_t deepest = kNumLayers;
    for (size_t l = kNumLayers; l-- > 0;) {
      if (open[l] > 0) {
        deepest = l;
        break;
      }
    }
    (deepest < kNumLayers ? self[deepest] : unattributed) += until - cursor;
    cursor = until;
  };
  for (const Event& event : events) {
    charge(event.time);
    if (event.opens) {
      ++open[event.layer];
    } else {
      --open[event.layer];
    }
  }
  charge(end_ns);
  for (size_t l = 0; l < kNumLayers; ++l) t.self_ms[l] = Ms(self[l]);
  t.unattributed_ms = Ms(unattributed);
  into->Add(t);
}

}  // namespace perfbench
