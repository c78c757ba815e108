#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "advisor/advisor.h"
#include "candidates/candidates.h"
#include "common/random.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/what_if.h"
#include "exec/thread_pool.h"
#include "ledger.h"
#include "obs/runtime.h"
#include "serve/checkpoint.h"
#include "serve/plan.h"
#include "serve/service.h"
#include "workload/erp_generator.h"
#include "workload/scalable_generator.h"

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (violations.size() < 8) violations.push_back(what);
}

namespace {

namespace fs = std::filesystem;
using idxsel::Status;
using idxsel::StatusCode;
using idxsel::advisor::AdvisorOptions;
using idxsel::advisor::Recommendation;
using idxsel::advisor::StrategyKind;
using idxsel::costmodel::CostModel;
using idxsel::costmodel::IndexConfig;
using idxsel::costmodel::ModelBackend;
using idxsel::costmodel::WhatIfBackend;
using idxsel::costmodel::WhatIfEngine;
using idxsel::workload::Workload;

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double MsSince(uint64_t start_ns) { return SecondsSince(start_ns) * 1e3; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t Counter(const std::map<std::string, uint64_t>& counters,
                 const char* name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Checks every answer: within budget and no worse than no indexes.
void CheckBudgetAndCost(const Recommendation& rec, const std::string& label,
                        RunResult* result) {
  if (!(rec.memory <= rec.budget * (1.0 + 1e-9))) {
    result->Fail(label + ": memory " + std::to_string(rec.memory) +
                 " exceeds budget " + std::to_string(rec.budget));
  }
  if (!(rec.cost_after <= rec.cost_before)) {
    result->Fail(label + ": cost_after exceeds cost_before");
  }
}

/// Identity of an answer: the selection, its cost, and its backend calls.
uint64_t Fingerprint(const Recommendation& rec) {
  std::ostringstream out;
  out << rec.selection.ToString() << '|' << std::hexfloat << rec.cost_after
      << '|' << rec.whatif_calls;
  return idxsel::serve::Fnv1a64(out.str());
}

/// Every run uses the same instance of each generator (seed 42 is the
/// paper's Fig 4 ERP instance). The run's seed draws the request order of
/// each closed-loop cycle and the serve workload's delta stream.
constexpr uint64_t kErpInstanceSeed = 42;
constexpr uint64_t kEx1InstanceSeed = 7;

// -- Closed loops (erp_h6, ex1_advisor) ---------------------------------------

/// Generated inputs of an advisor workload plus the analytic cost model
/// every request's fresh engine asks.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;
};

struct Request {
  std::string label;  ///< "h6@0.025", ...
  std::string kind;   ///< "h6", "cophy" (node-capped) or "deadline"
  AdvisorOptions options;
};

struct Reference {
  uint64_t fingerprint = 0;
  uint64_t whatif_calls = 0;
  double budget = 0.0;
  IndexConfig selection;
};

/// Per-cycle sums of one traced cycle.
struct CycleTrace {
  LayerTimes times;
  std::map<std::string, uint64_t> counters;
  double candidates_ms = 0.0;
  uint64_t candidates = 0;
};

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Writes trace.* metrics and prints "end-to-end = sum of layer self-time +
/// unattributed" from the means over traced cycles (means, not medians, so
/// the terms add up).
void FillAttribution(const std::vector<CycleTrace>& traces,
                     const std::vector<double>& untraced_e2e,
                     const char* unit, RunResult* result) {
  std::vector<double> e2e, unattributed;
  std::vector<double> self[kNumLayers];
  for (const CycleTrace& t : traces) {
    e2e.push_back(t.times.boundary_ms);
    unattributed.push_back(t.times.unattributed_ms);
    for (size_t l = 0; l < kNumLayers; ++l) {
      self[l].push_back(t.times.self_ms[l]);
    }
  }
  const double traced_ms = Mean(e2e);
  const double untraced_ms = Mean(untraced_e2e);
  const double unattributed_ms = Mean(unattributed);
  std::map<std::string, double>& L = result->layers;
  for (size_t l = 0; l < kNumLayers; ++l) {
    L[std::string(LayerName(static_cast<Layer>(l))) + ".self_ms"] =
        Mean(self[l]);
  }
  L["trace.end_to_end_ms"] = traced_ms;
  L["trace.unattributed_ms"] = unattributed_ms;
  L["trace.unattributed_share"] = Ratio(unattributed_ms, traced_ms);
  L["trace.overhead_ms"] = traced_ms - untraced_ms;
  L["trace.overhead_share"] = Ratio(traced_ms - untraced_ms, untraced_ms);
  std::ostringstream line;
  line.setf(std::ios::fixed);
  line.precision(1);
  line << "end-to-end " << traced_ms << " ms/" << unit << " =";
  for (size_t l = 0; l < kNumLayers; ++l) {
    line << ' ' << LayerName(static_cast<Layer>(l)) << ' ' << Mean(self[l])
         << " +";
  }
  line << " unattributed " << unattributed_ms << " ms ("
       << 100.0 * Ratio(unattributed_ms, traced_ms)
       << "% unattributed); tracing overhead " << traced_ms - untraced_ms
       << " ms (" << 100.0 * Ratio(traced_ms - untraced_ms, untraced_ms)
       << "%) against " << untraced_ms << " ms untraced; means over "
       << traces.size() << " traced and " << untraced_e2e.size()
       << " untraced " << unit << "s";
  result->ledger = line.str();
}

double SpanMs(const LayerTimes& times, const char* name) {
  const auto it = times.span_ms.find(name);
  return it == times.span_ms.end() ? 0.0 : it->second;
}

/// Per-layer metrics: means over traced cycles of per-cycle values.
void FillTraceLayers(const std::vector<CycleTrace>& traces,
                     const std::vector<double>& untraced_e2e,
                     const char* unit, RunResult* result) {
  std::map<std::string, double>& L = result->layers;
  std::vector<double> calls, backend_ms, hit_ratio, fast_hits, fallbacks,
      fast_ratio, core_ms, rounds, evals, evals_per_round, shard_ms, arbiter,
      cand_ms, cand_n, build_ms, mip_ms, nodes, nodes_per_s, cutoff_ratio,
      tasks, steals;
  for (const CycleTrace& t : traces) {
    const auto& c = t.counters;
    core_ms.push_back(SpanMs(t.times, "h6.run"));
    shard_ms.push_back(t.times.inclusive_ms[kShard]);
    build_ms.push_back(SpanMs(t.times, "cophy.build_problem"));
    mip_ms.push_back(SpanMs(t.times, "mip.solve"));
    calls.push_back(static_cast<double>(t.times.backend_calls));
    backend_ms.push_back(t.times.inclusive_ms[kCostmodel]);
    const double wcalls =
        static_cast<double>(Counter(c, "idxsel.whatif.calls"));
    const double hits =
        static_cast<double>(Counter(c, "idxsel.whatif.cache_hits"));
    hit_ratio.push_back(Ratio(hits, hits + wcalls));
    const double fast =
        static_cast<double>(Counter(c, "idxsel.kernel.fast_path_hits"));
    const double fb =
        static_cast<double>(Counter(c, "idxsel.kernel.fallback_lookups"));
    fast_hits.push_back(fast);
    fallbacks.push_back(fb);
    fast_ratio.push_back(Ratio(fast, fast + fb));
    const double r =
        static_cast<double>(Counter(c, "idxsel.selector.rounds"));
    const double ev =
        static_cast<double>(Counter(c, "idxsel.selector.candidate_evals"));
    rounds.push_back(r);
    evals.push_back(ev);
    evals_per_round.push_back(Ratio(ev, r));
    const double n = static_cast<double>(Counter(c, "idxsel.mip.nodes"));
    nodes.push_back(n);
    nodes_per_s.push_back(Ratio(n, mip_ms.back() / 1e3));
    cutoff_ratio.push_back(Ratio(
        static_cast<double>(Counter(c, "idxsel.mip.bound_cutoffs")), n));
    tasks.push_back(static_cast<double>(Counter(c, "idxsel.exec.tasks")));
    steals.push_back(static_cast<double>(Counter(c, "idxsel.exec.steals")));
    arbiter.push_back(
        static_cast<double>(Counter(c, "idxsel.shard.arbiter_rounds")));
    cand_ms.push_back(t.candidates_ms);
    cand_n.push_back(static_cast<double>(t.candidates));
  }
  L["costmodel.backend_calls"] = Mean(calls);
  L["costmodel.backend_ms"] = Mean(backend_ms);
  L["costmodel.cache_hit_ratio"] = Mean(hit_ratio);
  L["kernel.fast_path_hits"] = Mean(fast_hits);
  L["kernel.fallback_lookups"] = Mean(fallbacks);
  L["kernel.fast_path_ratio"] = Mean(fast_ratio);
  L["core.select_ms"] = Mean(core_ms);
  L["core.rounds"] = Mean(rounds);
  L["core.candidate_evals"] = Mean(evals);
  L["core.evals_per_round"] = Mean(evals_per_round);
  L["shard.select_ms"] = Mean(shard_ms);
  L["shard.arbiter_rounds"] = Mean(arbiter);
  L["candidates.generate_ms"] = Mean(cand_ms);
  L["candidates.count"] = Mean(cand_n);
  L["cophy.build_ms"] = Mean(build_ms);
  L["mip.solve_ms"] = Mean(mip_ms);
  L["mip.nodes"] = Mean(nodes);
  L["mip.nodes_per_s"] = Mean(nodes_per_s);
  L["mip.bound_cutoff_ratio"] = Mean(cutoff_ratio);
  L["exec.tasks"] = Mean(tasks);
  L["exec.steals"] = Mean(steals);
  FillAttribution(traces, untraced_e2e, unit, result);
}

class ClosedLoop {
 public:
  ClosedLoop(const RunConfig& config, RunResult* result, Instance instance,
             std::vector<Request> fixed, std::vector<Request> deadline)
      : config_(config),
        result_(result),
        instance_(std::move(instance)),
        fixed_(std::move(fixed)),
        deadline_(std::move(deadline)),
        rng_(config.seed) {}

  /// Warm-up cycle: its answers become the reference.
  void WarmUp() {
    for (const Request& request : fixed_) {
      WhatIfEngine engine(instance_.workload.get(), instance_.backend.get());
      auto rec = idxsel::advisor::Recommend(engine, request.options);
      ++result_->attempted;
      Reference ref;
      if (!rec.ok()) {
        result_->Fail(request.label + ": " + rec.status().ToString());
      } else {
        CheckFixedWork(request, rec.value());
        ref.fingerprint = Fingerprint(rec.value());
        ref.whatif_calls = rec.value().whatif_calls;
        ref.budget = rec.value().budget;
        ref.selection = rec.value().selection;
        result_->whatif_calls += ref.whatif_calls;
        result_->cost_ratios.push_back(rec.value().cost_after /
                                       rec.value().cost_before);
      }
      refs_.push_back(std::move(ref));
    }
  }

  const std::vector<Reference>& refs() const { return refs_; }
  const Instance& instance() const { return instance_; }

  /// The timed loop: whole cycles until `seconds` have passed. In trace
  /// mode untraced and traced cycles alternate.
  void Measure() {
    const uint64_t start = NowNs();
    size_t cycle = 0;
    while (SecondsSince(start) < config_.seconds ||
           (config_.trace && traces_.empty())) {
      if (config_.trace && cycle % 2 == 1) {
        TracedCycle();
      } else {
        UntracedCycle();
      }
      ++cycle;
    }
  }

  void FillLayers() {
    std::map<std::string, double>& L = result_->layers;
    L["advisor.h6_p50_ms"] = Median(by_kind_["h6"]);
    L["advisor.cophy_p50_ms"] = Median(by_kind_["cophy"]);
    L["advisor.deadline_overrun_ms"] = Median(overrun_ms_);
    FillTraceLayers(traces_, untraced_e2e_, "cycle", result_);
  }

 private:
  void CheckFixedWork(const Request& request, const Recommendation& rec) {
    CheckBudgetAndCost(rec, request.label, result_);
    // The node cap ends CoPhy with kResourceLimit and its incumbent; the
    // advisor then marks the answer degraded. Anything else is a failure.
    const bool capped = request.kind == "cophy" &&
                        rec.status.code() == StatusCode::kResourceLimit;
    if (!capped && (!rec.status.ok() || rec.degraded)) {
      result_->Fail(request.label + ": " + rec.status.ToString() +
                    (rec.degraded ? " (degraded)" : ""));
    }
  }

  void CheckRepeat(size_t i, const Recommendation& rec) {
    CheckFixedWork(fixed_[i], rec);
    if (Fingerprint(rec) != refs_[i].fingerprint) {
      result_->Fail(fixed_[i].label +
                    ": answer differs from the first repeat (selection " +
                    rec.selection.ToString() + ", " +
                    std::to_string(rec.whatif_calls) + " what-if calls vs " +
                    std::to_string(refs_[i].whatif_calls) + ")");
    }
  }

  /// The next cycle's request order, drawn from the run's seed.
  std::vector<size_t> NextOrder() {
    std::vector<size_t> order(fixed_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng_.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    return order;
  }

  void UntracedCycle() {
    double cycle_ms = 0.0;
    for (const size_t i : NextOrder()) {
      WhatIfEngine engine(instance_.workload.get(), instance_.backend.get());
      const uint64_t t0 = NowNs();
      auto rec = idxsel::advisor::Recommend(engine, fixed_[i].options);
      const double ms = MsSince(t0);
      ++result_->attempted;
      if (!rec.ok()) {
        result_->Fail(fixed_[i].label + ": " + rec.status().ToString());
        continue;
      }
      CheckRepeat(i, rec.value());
      result_->latency_ms[fixed_[i].label].push_back(ms);
      by_kind_[fixed_[i].kind].push_back(ms);
      cycle_ms += ms;
    }
    result_->cycle_s.push_back(cycle_ms / 1e3);
    result_->requests_per_cycle = fixed_.size();
    if (!config_.trace) return;
    untraced_e2e_.push_back(cycle_ms);
    for (const Request& request : deadline_) {
      WhatIfEngine engine(instance_.workload.get(), instance_.backend.get());
      const uint64_t t0 = NowNs();
      auto rec = idxsel::advisor::Recommend(engine, request.options);
      const double ms = MsSince(t0);
      ++result_->attempted;
      if (!rec.ok()) {
        result_->Fail(request.label + ": " + rec.status().ToString());
        continue;
      }
      CheckBudgetAndCost(rec.value(), request.label, result_);
      overrun_ms_.push_back(ms - request.options.time_limit_seconds * 1e3);
    }
  }

  void TracedCycle() {
    CycleTrace trace;
    idxsel::obs::SetEnabled(true);
    EnableBackendTiming(true);
    for (const size_t i : NextOrder()) {
      const AdvisorOptions& options = fixed_[i].options;
      if (options.strategy != StrategyKind::kRecursive) {
        // The candidate layer, called directly with the arguments the
        // advisor passes it (Recommend has no span around it).
        const uint64_t t0 = NowNs();
        const auto set =
            options.candidate_limit == 0
                ? idxsel::candidates::EnumerateAllCandidates(
                      *instance_.workload, options.candidate_max_width)
                : idxsel::candidates::GenerateCandidates(
                      *instance_.workload,
                      idxsel::candidates::CandidateHeuristic::kH1M,
                      options.candidate_limit, options.candidate_max_width);
        trace.candidates_ms += MsSince(t0);
        trace.candidates += set.size();
      }
      TimingBackend timed(instance_.backend.get());
      WhatIfEngine engine(instance_.workload.get(), &timed);
      const size_t shards =
          idxsel::advisor::ResolveShardCount(options, *instance_.workload);
      TracedCall call;
      auto rec = idxsel::advisor::Recommend(engine, options);
      call.Close(shards > 0, &trace.times);
      for (const auto& [name, value] : call.counters()) {
        trace.counters[name] += value;
      }
      ++result_->attempted;
      if (!rec.ok()) {
        result_->Fail(fixed_[i].label + ": " + rec.status().ToString());
        continue;
      }
      CheckRepeat(i, rec.value());
    }
    idxsel::obs::SetEnabled(false);
    EnableBackendTiming(false);
    traces_.push_back(std::move(trace));
  }

  const RunConfig& config_;
  RunResult* result_;
  Instance instance_;
  std::vector<Request> fixed_;
  std::vector<Request> deadline_;
  std::vector<Reference> refs_;
  std::map<std::string, std::vector<double>> by_kind_;
  std::vector<double> overrun_ms_;
  std::vector<double> untraced_e2e_;
  std::vector<CycleTrace> traces_;
  idxsel::Rng rng_;
};

/// Set-ups per run; `setup_s` is their median. A shared host's speed can
/// change from one tenth of a second to the next, so an advisor set-up (a few
/// milliseconds) repeats for at least kSetUpSeconds; a serve set-up (with
/// its cold pump, about 0.2 s) repeats kSetUps times.
constexpr int kSetUps = 15;
constexpr double kSetUpSeconds = 1.0;

/// Sets up (generator + cost model + one engine) at least kSetUps times
/// and for at least kSetUpSeconds, and keeps the last instance.
template <typename Generate>
Instance SetUp(Generate generate, RunResult* result) {
  Instance instance;
  std::vector<double> generate_ms;
  const uint64_t start = NowNs();
  for (int r = 0; r < kSetUps || SecondsSince(start) < kSetUpSeconds; ++r) {
    const uint64_t t0 = NowNs();
    instance.workload = std::make_unique<Workload>(generate());
    generate_ms.push_back(MsSince(t0));
    instance.model = std::make_unique<CostModel>(instance.workload.get());
    instance.backend = std::make_unique<ModelBackend>(instance.model.get());
    WhatIfEngine engine(instance.workload.get(), instance.backend.get());
    result->setup_s.push_back(SecondsSince(t0));
  }
  result->layers["workload.generate_ms"] = Median(generate_ms);
  return instance;
}

/// Every request runs serially. On a 4-vCPU VM whose host also runs other
/// guests, the default (one thread per CPU) measured 20-50 % slower in some
/// minutes than in others as the host stole CPU time, while serial runs
/// moved by a few percent; H6 was not faster with 4 threads there either.
constexpr size_t kThreads = 1;

AdvisorOptions DefaultOptions(double w) {
  AdvisorOptions options;
  options.budget_fraction = w;
  options.threads = kThreads;
  return options;
}

void RecordShape(const Workload& w, const AdvisorOptions& h6,
                 RunResult* result) {
  const size_t shards = idxsel::advisor::ResolveShardCount(h6, w);
  const size_t threads = idxsel::exec::ResolveThreads(h6.threads);
  result->info["tables"] = std::to_string(w.num_tables());
  result->info["attributes"] = std::to_string(w.num_attributes());
  result->info["queries"] = std::to_string(w.num_queries());
  result->info["shards"] = std::to_string(shards);
  result->info["threads"] = std::to_string(threads);
  result->layers["shard.shards"] = static_cast<double>(shards);
  result->layers["exec.threads"] = static_cast<double>(threads);
}

}  // namespace

RunResult RunErpH6(const RunConfig& config) {
  RunResult result;
  idxsel::workload::ErpWorkloadParams params;  // T=500, N=4204, Q=2271
  params.seed = kErpInstanceSeed;
  Instance instance = SetUp(
      [&] { return idxsel::workload::GenerateErpWorkload(params); },
      &result);
  std::vector<Request> requests;
  for (double w : {0.025, 0.05, 0.1}) {
    std::ostringstream label;
    label << "h6@" << w;
    requests.push_back({label.str(), "h6", DefaultOptions(w)});
  }
  RecordShape(*instance.workload, requests.front().options, &result);
  ClosedLoop loop(config, &result, std::move(instance), requests, {});
  loop.WarmUp();

  // Outside the timed loop: the sharded answer must equal plain
  // Algorithm 1 (core::SelectRecursive) for each budget. Its backend calls
  // are counted the way Recommend counts them (after the budget and
  // F(empty) are known), so the difference is the sharded path's extra.
  const Instance& in = loop.instance();
  int64_t gap = 0;
  std::string gaps;
  for (size_t i = 0; i < requests.size() && i < loop.refs().size(); ++i) {
    WhatIfEngine engine(in.workload.get(), in.backend.get());
    for (uint32_t a = 0; a < in.workload->num_attributes(); ++a) {
      engine.IndexMemory(idxsel::costmodel::Index(a));
    }
    engine.WorkloadCost(IndexConfig{});
    idxsel::core::RecursiveOptions options;
    options.budget = loop.refs()[i].budget;
    options.threads = kThreads;
    const idxsel::core::RecursiveResult plain =
        idxsel::core::SelectRecursive(engine, options);
    ++result.attempted;
    if (!(plain.selection == loop.refs()[i].selection)) {
      result.Fail(requests[i].label +
                  ": sharded selection differs from core::SelectRecursive");
    }
    const int64_t extra = static_cast<int64_t>(loop.refs()[i].whatif_calls) -
                          static_cast<int64_t>(plain.whatif_calls);
    gap += extra;
    if (!gaps.empty()) gaps += ',';
    gaps += std::to_string(extra);
  }
  result.info["shard_whatif_gap_per_budget"] = gaps;
  result.layers["shard.whatif_gap"] = static_cast<double>(gap);

  loop.Measure();
  if (config.trace) loop.FillLayers();
  return result;
}

RunResult RunEx1Advisor(const RunConfig& config) {
  RunResult result;
  idxsel::workload::ScalableWorkloadParams params;  // Example 1 shape
  params.num_tables = 10;
  params.attributes_per_table = 50;
  params.queries_per_table = 100;
  params.seed = kEx1InstanceSeed;
  Instance instance = SetUp(
      [&] { return idxsel::workload::GenerateScalableWorkload(params); },
      &result);
  std::vector<Request> fixed;
  for (double w : {0.1, 0.2, 0.3}) {
    std::ostringstream label;
    label << "h6@" << w;
    fixed.push_back({label.str(), "h6", DefaultOptions(w)});
  }
  AdvisorOptions cophy = DefaultOptions(0.2);
  cophy.strategy = StrategyKind::kCophy;
  cophy.candidate_limit = 1000;  // H1-M(1000)
  cophy.solver.max_nodes = 5000;
  fixed.push_back({"cophy-h1m1000@0.2", "cophy", cophy});
  AdvisorOptions deadline = DefaultOptions(0.2);
  deadline.strategy = StrategyKind::kCophy;
  deadline.candidate_limit = 0;  // IC_max
  deadline.time_limit_seconds = 1.0;
  RecordShape(*instance.workload, fixed.front().options, &result);
  ClosedLoop loop(config, &result, std::move(instance), fixed,
                  {{"cophy-icmax-1s@0.2", "deadline", deadline}});
  loop.WarmUp();
  loop.Measure();
  if (config.trace) loop.FillLayers();
  return result;
}

// -- serve_drift ------------------------------------------------------------

namespace {

using idxsel::serve::AdvisorService;
using idxsel::serve::DeltaKind;
using idxsel::serve::WorkloadDelta;

constexpr double kTickSeconds = 0.5;  // open-loop period
constexpr size_t kBatch = 8;          // deltas per tick
constexpr size_t kStructuralEvery = 5;
constexpr double kServeBudget = 0.05;

idxsel::workload::NamedWorkload ServeBase() {
  idxsel::workload::ErpWorkloadParams params;
  params.seed = kErpInstanceSeed;
  idxsel::workload::NamedWorkload named{
      idxsel::workload::GenerateErpWorkload(params), {}};
  const Workload& w = named.workload;
  for (uint32_t a = 0; a < w.num_attributes(); ++a) {
    // "TABLE.ATTR", the form the checkpoint's workload text parses back to.
    named.attribute_names.push_back(w.table(w.attribute(a).table).name +
                                    ".A" +
                                    std::to_string(w.attribute(a).ordinal));
  }
  return named;
}

/// The open loop's delta batches, a pure function of the base workload and
/// the seed. Every batch holds kBatch deltas: frequency shifts (a quarter
/// of them on four hot templates, so some coalesce in the queue), one
/// structural delta in every kStructuralEvery-th batch (removes and adds
/// alternate), and one budget change in the third batch of each group
/// (0.055 and 0.05 alternate).
std::vector<std::vector<WorkloadDelta>> DeltaScript(const Workload& base,
                                                    uint64_t seed,
                                                    size_t ticks) {
  struct Template {
    uint32_t table;
    std::vector<uint32_t> attrs;
    double frequency;  ///< base frequency; shifts stay within [0.5, 2]x
  };
  std::vector<Template> live;
  for (const auto& q : base.queries()) {
    live.push_back({q.table, q.attributes, q.frequency});
  }
  idxsel::Rng rng(seed ^ 0x5e7e5e7e5e7e5e7eULL);
  const auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  std::vector<std::vector<WorkloadDelta>> script(ticks);
  for (size_t i = 0; i < ticks; ++i) {
    std::vector<WorkloadDelta>& batch = script[i];
    const size_t group = i / kStructuralEvery;
    const size_t slot = i % kStructuralEvery;
    if (slot == kStructuralEvery - 1) {
      WorkloadDelta d;
      if (group % 2 == 0) {
        const size_t victim = pick(live.size());
        d.kind = DeltaKind::kRemoveTemplate;
        d.table = live[victim].table;
        d.attributes = live[victim].attrs;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        // A two-attribute template no live template has yet.
        for (;;) {
          const uint32_t t = static_cast<uint32_t>(pick(base.num_tables()));
          const auto& attrs = base.table(t).attributes;
          if (attrs.size() < 2) continue;
          std::vector<uint32_t> pair{attrs[pick(attrs.size())],
                                     attrs[pick(attrs.size())]};
          if (pair[0] == pair[1]) continue;
          std::sort(pair.begin(), pair.end());
          const bool exists =
              std::any_of(live.begin(), live.end(), [&](const Template& x) {
                return x.table == t && x.attrs == pair;
              });
          if (exists) continue;
          d.kind = DeltaKind::kAddTemplate;
          d.table = t;
          d.attributes = pair;
          d.frequency = live[pick(live.size())].frequency;
          live.push_back({t, pair, d.frequency});
          break;
        }
      }
      batch.push_back(d);
    }
    if (slot == 2) {
      WorkloadDelta d;
      d.kind = DeltaKind::kBudgetChange;
      d.budget_fraction = group % 2 == 0 ? 0.055 : kServeBudget;
      batch.push_back(d);
    }
    while (batch.size() < kBatch) {
      // A quarter of the shifts hit four hot templates, so some coalesce.
      const Template& t =
          live[rng.NextDouble() < 0.25 ? pick(4) : pick(live.size())];
      WorkloadDelta d;
      d.kind = DeltaKind::kFrequencyShift;
      d.table = t.table;
      d.attributes = t.attrs;
      d.frequency = t.frequency * std::exp(rng.Uniform(-0.7, 0.7));
      batch.push_back(d);
    }
  }
  return script;
}

uint64_t StateBytes(const AdvisorService& service) {
  uint64_t total = 0;
  for (const std::string& path :
       {service.checkpoint_path(), service.delta_log_path(),
        service.epoch_log_path()}) {
    std::error_code ec;
    const uint64_t size = fs::file_size(path, ec);
    if (!ec) total += size;
  }
  return total;
}

void CheckAnswer(const idxsel::serve::ServiceAnswer& answer,
                 const std::string& label, RunResult* result) {
  if (answer.degraded) result->Fail(label + ": degraded serve answer");
  CheckBudgetAndCost(answer.recommendation, label, result);
  const Status plan = idxsel::serve::ValidatePlanPrefixes(answer.plan);
  if (!plan.ok()) result->Fail(label + ": plan " + plan.ToString());
}

idxsel::serve::ServiceOptions ServeOptions(const std::string& dir) {
  idxsel::serve::ServiceOptions options;  // fsync on every Submit
  options.advisor.budget_fraction = kServeBudget;
  options.advisor.threads = kThreads;
  options.dir = dir;
  return options;
}

idxsel::serve::BackendFactory ServeFactory(bool timed) {
  idxsel::serve::BackendFactory factory =
      idxsel::serve::MakeModelBackendFactory();
  if (!timed) return factory;
  return [inner = std::move(factory)](const Workload& w) {
    return std::unique_ptr<WhatIfBackend>(
        std::make_unique<TimingBackend>(inner(w)));
  };
}

/// Start + the first (cold) pump, in a fresh state directory.
std::unique_ptr<AdvisorService> StartService(
    const idxsel::workload::NamedWorkload& base, const std::string& dir,
    bool timed_backend, RunResult* result) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto started = AdvisorService::Start(base, ServeFactory(timed_backend),
                                       ServeOptions(dir));
  ++result->attempted;
  if (!started.ok()) {
    result->Fail("serve start: " + started.status().ToString());
    return nullptr;
  }
  std::unique_ptr<AdvisorService> service = std::move(started).value();
  auto cold = service->Pump();
  ++result->attempted;
  if (!cold.ok() || !cold.value().committed) {
    result->Fail("serve: the cold pump did not commit");
  }
  return service;
}

/// What one pass of the open loop measured.
struct OpenLoopStats {
  // Per delta, by tick kind ("drift" or "structural").
  std::map<std::string, std::vector<double>> staleness_ms;
  std::vector<double> submit_us;     // untraced ticks only
  std::vector<double> pump_drift_ms;
  std::vector<double> pump_structural_ms;
  std::vector<double> tick_busy_s;  // Submits + Pump of each tick
  double max_lag_ms = 0.0;
  uint64_t whatif_calls = 0;
  std::vector<double> cost_ratios;
  std::vector<CycleTrace> traces;         // traced tick groups
  std::vector<double> untraced_group_ms;  // busy time of untraced groups
};

/// Runs the open loop: tick i is due `i * kTickSeconds` after the start;
/// it submits its batch and pumps once. A late tick runs as soon as it can
/// and is never merged with the next. With `trace`, every other pair of
/// kStructuralEvery-tick groups is traced, so traced and untraced ticks see
/// the same mix of removes, adds and budget changes (the service's
/// backends must be TimingBackends). `sharded`: the service's rounds take
/// the sharded H6 path (for the ledger).
OpenLoopStats RunOpenLoop(AdvisorService& service,
                          const std::vector<std::vector<WorkloadDelta>>& script,
                          bool trace, bool sharded, RunResult* result) {
  OpenLoopStats stats;
  const uint64_t period_ns = static_cast<uint64_t>(kTickSeconds * 1e9);
  const uint64_t origin = NowNs() + period_ns / 10;
  CycleTrace group;
  double group_ms = 0.0;
  for (size_t i = 0; i < script.size(); ++i) {
    const bool traced = trace && (i / (2 * kStructuralEvery)) % 2 == 1;
    const bool structural = i % kStructuralEvery == kStructuralEvery - 1;
    const uint64_t due = origin + i * period_ns;
    const uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    stats.max_lag_ms = std::max(stats.max_lag_ms, MsSince(due));
    idxsel::obs::SetEnabled(traced);
    EnableBackendTiming(traced);
    // Runs one call into the service, traced or not.
    const auto call = [&](bool pump, auto&& fn) {
      if (!traced) return fn();
      TracedCall traced_call;
      auto value = fn();
      traced_call.Close(pump && sharded, &group.times);
      for (const auto& [k, v] : traced_call.counters()) group.counters[k] += v;
      return value;
    };
    const uint64_t tick_start = NowNs();
    for (const WorkloadDelta& delta : script[i]) {
      const uint64_t t0 = NowNs();
      const Status st = call(false, [&] { return service.Submit(delta); });
      if (!traced) stats.submit_us.push_back(MsSince(t0) * 1e3);
      ++result->attempted;
      if (!st.ok()) result->Fail("submit: " + st.ToString());
    }
    const uint64_t p0 = NowNs();
    const auto out = call(true, [&] { return service.Pump(); });
    const uint64_t commit = NowNs();
    idxsel::obs::SetEnabled(false);
    EnableBackendTiming(false);
    if (!traced) {
      (structural ? stats.pump_structural_ms : stats.pump_drift_ms)
          .push_back(static_cast<double>(commit - p0) / 1e6);
    }
    const double busy_ms = static_cast<double>(commit - tick_start) / 1e6;
    stats.tick_busy_s.push_back(busy_ms / 1e3);
    group_ms += busy_ms;
    if (structural) {  // the group's last tick
      if (traced) {
        stats.traces.push_back(std::move(group));
      } else {
        stats.untraced_group_ms.push_back(group_ms);
      }
      group = CycleTrace{};
      group_ms = 0.0;
    }
    ++result->attempted;
    if (!out.ok() || !out.value().committed || out.value().degraded) {
      result->Fail("pump " + std::to_string(i) + " did not commit cleanly");
      continue;
    }
    stats.whatif_calls += out.value().whatif_calls;
    for (size_t d = 0; d < script[i].size(); ++d) {
      stats.staleness_ms[structural ? "structural" : "drift"].push_back(
          static_cast<double>(commit - due) / 1e6);
    }
    const idxsel::serve::ServiceAnswer answer = service.Answer();
    CheckAnswer(answer, "tick " + std::to_string(i), result);
    stats.cost_ratios.push_back(answer.recommendation.cost_after /
                                answer.recommendation.cost_before);
  }
  return stats;
}

}  // namespace

RunResult RunServeDrift(const RunConfig& config) {
  RunResult result;
  idxsel::workload::NamedWorkload base;
  std::unique_ptr<AdvisorService> service;
  std::vector<double> generate_ms;
  for (int r = 0; r < kSetUps; ++r) {
    if (service != nullptr) (void)service->Stop();
    service.reset();
    const uint64_t t0 = NowNs();
    base = ServeBase();
    generate_ms.push_back(MsSince(t0));
    service = StartService(base,
                           config.state_dir + "/setup" + std::to_string(r),
                           /*timed_backend=*/config.trace, &result);
    result.setup_s.push_back(SecondsSince(t0));
    if (service == nullptr) return result;
  }
  result.layers["workload.generate_ms"] = Median(generate_ms);
  const idxsel::serve::ServiceOptions options = ServeOptions(
      config.state_dir + "/setup" + std::to_string(kSetUps - 1));
  RecordShape(base.workload, options.advisor, &result);
  const bool sharded =
      idxsel::advisor::ResolveShardCount(options.advisor, base.workload) > 0;

  // At least two blocks of ten ticks, so a traced run traces one.
  const size_t ticks = std::max<size_t>(
      4 * kStructuralEvery,
      static_cast<size_t>(config.seconds / kTickSeconds));
  // One batch more than the loop runs: the restart check submits it.
  std::vector<std::vector<WorkloadDelta>> script =
      DeltaScript(base.workload, config.seed, ticks + 1);
  const std::vector<WorkloadDelta> unpumped = script.back();
  script.pop_back();

  const idxsel::serve::ServeStats before = service->stats();
  const uint64_t bytes_before = StateBytes(*service);
  OpenLoopStats run =
      RunOpenLoop(*service, script, config.trace, sharded, &result);
  const idxsel::serve::ServeStats after = service->stats();
  const uint64_t logged = (after.deltas_accepted - before.deltas_accepted) +
                          (after.deltas_coalesced - before.deltas_coalesced);
  std::map<std::string, double>& L = result.layers;
  L["serve.submit_us"] = Median(run.submit_us);
  L["serve.pump_ms.drift"] = Median(run.pump_drift_ms);
  L["serve.pump_ms.structural"] = Median(run.pump_structural_ms);
  L["serve.engine_rebuilds"] =
      static_cast<double>(after.engine_rebuilds - before.engine_rebuilds);
  L["serve.coalesced_ratio"] = Ratio(
      static_cast<double>(after.deltas_coalesced - before.deltas_coalesced),
      static_cast<double>(logged));
  L["serve.bytes_per_delta"] =
      Ratio(static_cast<double>(StateBytes(*service)) -
                static_cast<double>(bytes_before),
            static_cast<double>(logged));
  L["serve.generator_lag_ms"] = run.max_lag_ms;
  result.latency_ms = run.staleness_ms;
  result.cycle_s = run.tick_busy_s;
  if (config.trace) {
    FillTraceLayers(run.traces, run.untraced_group_ms, "tick-group", &result);
  }
  result.requests_per_cycle = kBatch;
  result.whatif_calls = run.whatif_calls;
  result.cost_ratios = run.cost_ratios;

  // Restart: deltas submitted without a pump must be replayed from the
  // delta log, and the recovered answer must equal the pre-restart one.
  for (const WorkloadDelta& delta : unpumped) {
    ++result.attempted;
    const Status st = service->Submit(delta);
    if (!st.ok()) result.Fail("submit before restart: " + st.ToString());
  }
  const idxsel::serve::ServiceAnswer pre = service->Answer();
  (void)service->Stop();
  service.reset();
  const uint64_t t0 = NowNs();
  auto restarted =
      AdvisorService::Start(base, ServeFactory(config.trace), options);
  L["serve.recovery_ms"] = MsSince(t0);
  ++result.attempted;
  if (!restarted.ok()) {
    result.Fail("restart: " + restarted.status().ToString());
  } else {
    service = std::move(restarted).value();
    const idxsel::serve::ServiceAnswer post = service->Answer();
    if (service->stats().recoveries != 1 ||
        service->stats().replayed_deltas < unpumped.size()) {
      result.Fail("restart did not recover from the checkpoint and log");
    }
    if (post.epoch != pre.epoch ||
        !(post.recommendation.selection == pre.recommendation.selection) ||
        post.recommendation.cost_after != pre.recommendation.cost_after) {
      result.Fail("recovered answer differs from the pre-restart answer");
    }
    CheckAnswer(post, "recovered", &result);
    (void)service->Stop();
    service.reset();
  }

  return result;
}

}  // namespace perfbench
