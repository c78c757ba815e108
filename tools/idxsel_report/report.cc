#include "idxsel_report/report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "serve/checkpoint.h"

namespace idxsel::report {
namespace {

std::string FormatNumber(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

/// Canonical single-line rendering of any value, used by the structural
/// diff so "changed" lines show both sides compactly.
std::string Compact(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return v.bool_value ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return FormatNumber(v.number);
    case JsonValue::Kind::kString:
      return "\"" + v.string_value + "\"";
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < v.members.size(); ++i) {
        if (i != 0) out += ", ";
        out += v.members[i].first + ": " + Compact(v.members[i].second);
      }
      return out + "}";
    }
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i != 0) out += ", ";
        out += Compact(v.items[i]);
      }
      return out + "]";
    }
  }
  return "?";
}

bool SameValue(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.bool_value == b.bool_value;
    case JsonValue::Kind::kNumber:
      // NaN == NaN here: two runs that both sanitized a what-if answer
      // did the same thing.
      return a.number == b.number ||
             (std::isnan(a.number) && std::isnan(b.number));
    case JsonValue::Kind::kString:
      return a.string_value == b.string_value;
    case JsonValue::Kind::kObject: {
      if (a.members.size() != b.members.size()) return false;
      for (size_t i = 0; i < a.members.size(); ++i) {
        if (a.members[i].first != b.members[i].first ||
            !SameValue(a.members[i].second, b.members[i].second)) {
          return false;
        }
      }
      return true;
    }
    case JsonValue::Kind::kArray: {
      if (a.items.size() != b.items.size()) return false;
      for (size_t i = 0; i < a.items.size(); ++i) {
        if (!SameValue(a.items[i], b.items[i])) return false;
      }
      return true;
    }
  }
  return false;
}

void DiffValue(const std::string& path, const JsonValue* a,
               const JsonValue* b, std::string* out, bool* drift) {
  if (a == nullptr) {
    *drift = true;
    *out += "  + " + path + " = " + Compact(*b) + "\n";
    return;
  }
  if (b == nullptr) {
    *drift = true;
    *out += "  - " + path + " = " + Compact(*a) + "\n";
    return;
  }
  if (a->kind == JsonValue::Kind::kObject &&
      b->kind == JsonValue::Kind::kObject) {
    for (const auto& [key, value] : a->members) {
      DiffValue(path + "." + key, &value, b->Find(key), out, drift);
    }
    for (const auto& [key, value] : b->members) {
      if (a->Find(key) == nullptr) {
        DiffValue(path + "." + key, nullptr, &value, out, drift);
      }
    }
    return;
  }
  if (a->kind == JsonValue::Kind::kArray &&
      b->kind == JsonValue::Kind::kArray) {
    const size_t n = std::max(a->items.size(), b->items.size());
    for (size_t i = 0; i < n; ++i) {
      DiffValue(path + "[" + std::to_string(i) + "]",
                i < a->items.size() ? &a->items[i] : nullptr,
                i < b->items.size() ? &b->items[i] : nullptr, out, drift);
    }
    return;
  }
  if (!SameValue(*a, *b)) {
    *drift = true;
    *out += "  ~ " + path + ": " + Compact(*a) + " -> " + Compact(*b) + "\n";
  }
}

uint64_t RoundOf(const JsonValue& record) {
  return static_cast<uint64_t>(record.NumberOr("round", 0.0));
}

/// Alignment key for journal records: lane + action + round — plus the
/// serve epoch when present, so two serve runs diff epoch-for-epoch even
/// when retries or absorbed pumps shift record positions. A
/// disambiguating occurrence counter covers repeated keys.
std::string RecordKey(const JsonValue& record,
                      std::map<std::string, size_t>* seen) {
  std::string key = record.StringOr("strategy", "?") + "/" +
                    record.StringOr("action", "?") + "/" +
                    std::to_string(RoundOf(record));
  if (const JsonValue* epoch = record.Find("epoch")) {
    key += "/e" + FormatNumber(epoch->number);
  }
  const size_t occurrence = (*seen)[key]++;
  if (occurrence > 0) key += "#" + std::to_string(occurrence);
  return key;
}

}  // namespace

double NumberField(const JsonValue& obj, const std::string& key,
                   double fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (v->kind == JsonValue::Kind::kNumber) return v->number;
  if (v->kind == JsonValue::Kind::kString) {
    if (v->string_value == "inf") {
      return std::numeric_limits<double>::infinity();
    }
    if (v->string_value == "-inf") {
      return -std::numeric_limits<double>::infinity();
    }
    if (v->string_value == "nan") {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  return fallback;
}

std::string RenderJournal(const std::vector<JsonValue>& records) {
  std::string out;
  std::string lane;
  for (const JsonValue& r : records) {
    const std::string strategy = r.StringOr("strategy", "?");
    if (strategy != lane) {
      lane = strategy;
      out += "[" + lane + "]\n";
    }
    const std::string action = r.StringOr("action", "?");
    char buf[64];
    std::snprintf(buf, sizeof buf, "  %4" PRIu64 "  %-8s",
                  RoundOf(r), action.c_str());
    out += buf;
    const std::string winner = r.StringOr("winner", "");
    if (!winner.empty()) out += " " + winner;
    const double ratio = NumberField(r, "winner_ratio", 0.0);
    if (ratio != 0.0) out += "  ratio=" + FormatNumber(ratio);
    const double margin = NumberField(r, "margin", 0.0);
    if (margin != 0.0) out += "  margin=" + FormatNumber(margin);
    const double before = NumberField(r, "objective_before", 0.0);
    const double after = NumberField(r, "objective_after", 0.0);
    if (before != 0.0 || after != 0.0) {
      out += "  objective " + FormatNumber(before) + " -> " +
             FormatNumber(after);
    }
    const double memory = NumberField(r, "memory_after", 0.0);
    if (memory != 0.0) out += "  memory=" + FormatNumber(memory);

    // Reject tally by reason (the winner rides along with an empty
    // reject field and stays out of the tally).
    if (const JsonValue* candidates = r.Find("candidates")) {
      std::map<std::string, size_t> reasons;
      for (const JsonValue& c : candidates->items) {
        const std::string reason = c.StringOr("reject", "");
        if (!reason.empty()) ++reasons[reason];
      }
      if (!reasons.empty()) {
        out += "  rejects:";
        for (const auto& [reason, count] : reasons) {
          out += " " + reason + "=" + std::to_string(count);
        }
      }
    }
    const double sanitized = NumberField(r, "sanitized_whatif", 0.0);
    if (sanitized != 0.0) {
      out += "  sanitized=" + FormatNumber(sanitized);
    }

    // Serve epoch records (idxsel.serve.epoch.v1): trigger, folded
    // deltas, budget, degraded flag, and a create/drop plan summary.
    const std::string trigger = r.StringOr("trigger", "");
    if (!trigger.empty()) out += "  trigger=" + trigger;
    const double deltas = NumberField(r, "deltas", 0.0);
    if (deltas != 0.0) out += "  deltas=" + FormatNumber(deltas);
    const double budget = NumberField(r, "budget", 0.0);
    if (budget != 0.0) out += "  budget=" + FormatNumber(budget);
    if (const JsonValue* degraded = r.Find("degraded")) {
      if (degraded->bool_value) out += "  DEGRADED";
    }
    if (const JsonValue* plan = r.Find("plan")) {
      size_t creates = 0;
      size_t drops = 0;
      for (const JsonValue& step : plan->items) {
        if (step.StringOr("op", "") == "create") {
          ++creates;
        } else {
          ++drops;
        }
      }
      if (creates + drops > 0) {
        out += "  plan=" + std::to_string(creates) + "C/" +
               std::to_string(drops) + "D";
      }
    }

    const std::string note = r.StringOr("note", "");
    if (!note.empty()) out += "  (" + note + ")";
    out += "\n";
  }
  if (out.empty()) out = "(empty journal)\n";
  return out;
}

std::string RenderMetrics(const JsonValue& doc) {
  std::string out;
  const auto section = [&](const char* key) {
    const JsonValue* group = doc.Find(key);
    if (group == nullptr || group->members.empty()) return;
    out += std::string(key) + ":\n";
    for (const auto& [name, value] : group->members) {
      out += "  " + name + " = " + Compact(value) + "\n";
    }
  };
  section("counters");
  section("gauges");
  section("histograms");
  if (out.empty()) out = "(no metrics)\n";
  return out;
}

std::string RenderTrajectory(const JsonValue& doc) {
  std::string out = "perf trajectory";
  if (const JsonValue* provenance = doc.Find("provenance")) {
    out += " (" + provenance->StringOr("git_sha", "unknown") + ", " +
           provenance->StringOr("build_type", "unspecified") + ")";
  }
  out += "\n";
  const JsonValue* points = doc.Find("points");
  if (points == nullptr) return out + "(no points)\n";
  for (const JsonValue& p : points->items) {
    char buf[256];
    const JsonValue* h6 = p.Find("h6");
    const JsonValue* portfolio = p.Find("portfolio");
    std::snprintf(
        buf, sizeof buf,
        "  N=%-4.0f Q=%-4.0f  h6: %.0f steps, %.0f what-if calls, "
        "%.1f steps/sec, %.1f allocs/step   portfolio: %s (%.0f calls)   "
        "rss=%.1f MB\n",
        p.NumberOr("n", 0.0), p.NumberOr("q", 0.0),
        h6 != nullptr ? h6->NumberOr("steps", 0.0) : 0.0,
        h6 != nullptr ? h6->NumberOr("whatif_calls", 0.0) : 0.0,
        h6 != nullptr ? h6->NumberOr("steps_per_sec", 0.0) : 0.0,
        h6 != nullptr ? h6->NumberOr("allocations_per_step", 0.0) : 0.0,
        portfolio != nullptr
            ? portfolio->StringOr("winner", "?").c_str()
            : "?",
        portfolio != nullptr ? portfolio->NumberOr("whatif_calls", 0.0)
                             : 0.0,
        p.NumberOr("peak_rss_kb", 0.0) / 1024.0);
    out += buf;
  }
  if (const JsonValue* shard_points = doc.Find("shard_points")) {
    if (!shard_points->items.empty()) out += "sharded ladder:\n";
    for (const JsonValue& p : shard_points->items) {
      const JsonValue* s = p.Find("shard");
      if (s == nullptr) continue;
      char buf[256];
      std::snprintf(
          buf, sizeof buf,
          "  T=%-6.0f templates=%-7.0f shards=%.0f rounds=%.0f "
          "steps=%.0f calls=%.0f compress=%.3f sharded=%.3fs "
          "unsharded=%.3fs speedup=%.2fx\n",
          p.NumberOr("tables", 0.0), p.NumberOr("templates", 0.0),
          s->NumberOr("shards", 0.0), s->NumberOr("arbiter_rounds", 0.0),
          s->NumberOr("steps", 0.0), s->NumberOr("whatif_calls", 0.0),
          s->NumberOr("compression_ratio", 0.0),
          s->NumberOr("sharded_seconds", 0.0),
          s->NumberOr("unsharded_seconds", 0.0),
          s->NumberOr("speedup", 0.0));
      out += buf;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "  process peak rss: %.1f MB\n",
                doc.NumberOr("peak_rss_kb", 0.0) / 1024.0);
  out += buf;
  return out;
}

std::string RenderServeCheckpoint(const std::string& body) {
  auto parsed = serve::DeserializeCheckpoint(body);
  if (!parsed.ok()) {
    return "REJECTED checkpoint: " + parsed.status().ToString() + "\n";
  }
  const serve::Checkpoint& cp = parsed.value();
  std::string out;
  out += "serve checkpoint (verified)\n";
  out += "  epoch:      " + std::to_string(cp.epoch) + "\n";
  out += "  cursor:     " + std::to_string(cp.cursor) + " delta-log lines\n";
  out += "  budget:     fraction " + FormatNumber(cp.budget_fraction);
  if (cp.budget_bytes > 0.0) {
    out += ", " + FormatNumber(cp.budget_bytes) + " bytes";
  }
  out += "\n";
  out += "  drift:      " + FormatNumber(cp.drift) + "\n";
  out += "  objective:  " + FormatNumber(cp.cost_before) + " -> " +
         FormatNumber(cp.cost_after) + "\n";
  out += "  memory:     " + FormatNumber(cp.memory) + "\n";
  if (cp.degraded) out += "  DEGRADED commitment\n";
  out += "  selection:  " + std::to_string(cp.selection.size()) +
         " indexes  " + cp.selection.ToString() + "\n";
  if (!cp.plan.steps.empty()) {
    out += "  plan (budget " + FormatNumber(cp.plan.budget) + ", memory " +
           FormatNumber(cp.plan.initial_memory) + " -> " +
           FormatNumber(cp.plan.final_memory) + "):\n";
    for (size_t i = 0; i < cp.plan.steps.size(); ++i) {
      const serve::PlanStep& step = cp.plan.steps[i];
      out += "    " + std::to_string(i + 1) + ". " +
             (step.create ? "CREATE " : "DROP   ") + step.index.ToString() +
             "  benefit=" + FormatNumber(step.benefit) +
             "  mem_after=" + FormatNumber(step.memory_after) + "\n";
    }
  }
  const size_t workload_lines =
      static_cast<size_t>(std::count(cp.workload_text.begin(),
                                     cp.workload_text.end(), '\n'));
  out += "  workload:   " + std::to_string(cp.workload_text.size()) +
         " bytes, " + std::to_string(workload_lines) + " lines\n";
  return out;
}

std::string DiffJournals(const std::vector<JsonValue>& a,
                         const std::vector<JsonValue>& b, bool* drift) {
  *drift = false;
  std::string out;

  std::map<std::string, const JsonValue*> index_b;
  std::vector<std::pair<std::string, const JsonValue*>> ordered_b;
  {
    std::map<std::string, size_t> seen;
    for (const JsonValue& r : b) {
      const std::string key = RecordKey(r, &seen);
      index_b[key] = &r;
      ordered_b.emplace_back(key, &r);
    }
  }

  std::map<std::string, size_t> seen_a;
  std::map<std::string, bool> matched;
  for (const JsonValue& ra : a) {
    const std::string key = RecordKey(ra, &seen_a);
    const auto it = index_b.find(key);
    if (it == index_b.end()) {
      *drift = true;
      out += "  - " + key + " only in first journal (winner " +
             ra.StringOr("winner", "-") + ")\n";
      continue;
    }
    matched[key] = true;
    const JsonValue& rb = *it->second;
    const std::string winner_a = ra.StringOr("winner", "");
    const std::string winner_b = rb.StringOr("winner", "");
    if (winner_a != winner_b) {
      *drift = true;
      out += "  ~ " + key + " pick changed: " + winner_a + " -> " +
             winner_b + "\n";
    }
    const double cost_a = NumberField(ra, "objective_after", 0.0);
    const double cost_b = NumberField(rb, "objective_after", 0.0);
    if (!(cost_a == cost_b ||
          (std::isnan(cost_a) && std::isnan(cost_b)))) {
      *drift = true;
      out += "  ~ " + key + " cost changed: " + FormatNumber(cost_a) +
             " -> " + FormatNumber(cost_b) + "\n";
    }
    if (winner_a == winner_b && cost_a == cost_b && !SameValue(ra, rb)) {
      // Same decision, different supporting evidence (margins, reject
      // lists, notes) — still drift, shown field by field.
      std::string detail;
      DiffValue(key, &ra, &rb, &detail, drift);
      out += detail;
    }
  }
  for (const auto& [key, record] : ordered_b) {
    if (!matched[key]) {
      *drift = true;
      out += "  + " + key + " only in second journal (winner " +
             record->StringOr("winner", "-") + ")\n";
    }
  }

  if (!*drift) {
    out = "zero drift: " + std::to_string(a.size()) +
          " journal records identical\n";
  }
  return out;
}

std::string DiffDocuments(const JsonValue& a, const JsonValue& b,
                          bool* drift) {
  *drift = false;
  std::string out;
  DiffValue("$", &a, &b, &out, drift);
  if (!*drift) out = "zero drift: documents identical\n";
  return out;
}

TrajectoryCheckResult CheckTrajectory(const JsonValue& current,
                                      const JsonValue& baseline,
                                      const TrajectoryCheckOptions& options) {
  TrajectoryCheckResult result;
  char buf[256];
  const auto fail = [&](const std::string& line) {
    result.ok = false;
    result.text += "  FAIL " + line + "\n";
  };
  const auto pass = [&](const std::string& line) {
    result.text += "  ok   " + line + "\n";
  };

  // Quick and full runs walk different ladders; comparing across modes
  // would only report every point as missing. Documents written before
  // the field existed are quick-mode.
  const std::string current_mode = current.StringOr("mode", "quick");
  const std::string baseline_mode = baseline.StringOr("mode", "quick");
  if (current_mode != baseline_mode) {
    fail("mode: current run is " + current_mode + "-mode, baseline is " +
         baseline_mode + "-mode; gate against a " + current_mode +
         "-mode baseline");
    result.text = "trajectory check FAILED\n" + result.text;
    return result;
  }

  const JsonValue* current_points = current.Find("points");
  const JsonValue* baseline_points = baseline.Find("points");
  if (current_points == nullptr || baseline_points == nullptr) {
    fail("missing \"points\" array");
    return result;
  }

  const auto point_key = [](const JsonValue& p) {
    return std::to_string(static_cast<int64_t>(p.NumberOr("n", -1.0))) +
           "x" +
           std::to_string(static_cast<int64_t>(p.NumberOr("q", -1.0)));
  };
  std::map<std::string, const JsonValue*> base_by_key;
  for (const JsonValue& p : baseline_points->items) {
    base_by_key[point_key(p)] = &p;
  }

  for (const JsonValue& p : current_points->items) {
    const std::string key = point_key(p);
    const auto it = base_by_key.find(key);
    if (it == base_by_key.end()) {
      fail("point " + key + " missing from baseline");
      continue;
    }
    const JsonValue& base = *it->second;
    base_by_key.erase(it);

    // Deterministic work metrics: exact match required.
    const auto exact = [&](const char* group, const char* field) {
      const JsonValue* cg = p.Find(group);
      const JsonValue* bg = base.Find(group);
      const double cv = cg != nullptr ? cg->NumberOr(field, -1.0) : -1.0;
      const double bv = bg != nullptr ? bg->NumberOr(field, -1.0) : -1.0;
      std::snprintf(buf, sizeof buf, "%s %s.%s: %.0f (baseline %.0f)",
                    key.c_str(), group, field, cv, bv);
      if (cv == bv) {
        pass(buf);
      } else {
        fail(buf);
      }
    };
    exact("h6", "steps");
    exact("h6", "whatif_calls");
    exact("portfolio", "whatif_calls");
    // Serve-layer work metrics (cold first commit + warm incremental
    // round, threads=1) are deterministic too — PR 7 adds them to every
    // trajectory point.
    exact("serve", "cold_whatif_calls");
    exact("serve", "incremental_whatif_calls");
    exact("serve", "epoch");
    // Kernel SIMD group (PR 8): dense fast-path/fallback/filter tallies
    // of a serial kernel-on run are pure functions of the workload, and
    // dispatch_identical == 1 records that a forced-scalar rerun
    // reproduced the native-dispatch run exactly.
    exact("kernel_simd", "fast_path_hits");
    exact("kernel_simd", "fallback_lookups");
    exact("kernel_simd", "filtered_queries");
    exact("kernel_simd", "dispatch_identical");
    {
      const JsonValue* cg = p.Find("portfolio");
      const JsonValue* bg = base.Find("portfolio");
      const std::string cw =
          cg != nullptr ? cg->StringOr("winner", "?") : "?";
      const std::string bw =
          bg != nullptr ? bg->StringOr("winner", "?") : "?";
      const std::string line =
          key + " portfolio.winner: " + cw + " (baseline " + bw + ")";
      if (cw == bw) {
        pass(line);
      } else {
        fail(line);
      }
    }

    // Timing gate: steps/sec may drop at most the configured share.
    const JsonValue* ch6 = p.Find("h6");
    const JsonValue* bh6 = base.Find("h6");
    const double current_rate =
        ch6 != nullptr ? ch6->NumberOr("steps_per_sec", 0.0) : 0.0;
    const double baseline_rate =
        bh6 != nullptr ? bh6->NumberOr("steps_per_sec", 0.0) : 0.0;
    const double floor_rate =
        baseline_rate * (1.0 - options.max_steps_per_sec_drop);
    std::snprintf(buf, sizeof buf,
                  "%s h6.steps_per_sec: %.1f (baseline %.1f, floor %.1f)",
                  key.c_str(), current_rate, baseline_rate, floor_rate);
    if (baseline_rate <= 0.0 || current_rate >= floor_rate) {
      pass(buf);
    } else {
      fail(buf);
    }
  }
  for (const auto& [key, point] : base_by_key) {
    fail("point " + key + " missing from current run");
  }

  // Sharded ladder (idxsel::shard): the arbiter's work metrics are
  // deterministic — byte-identical recommendations across shard and
  // thread counts is the module's core invariant — so every field of the
  // `shard` group is gated exactly, keyed by table count. Wall seconds
  // and the derived compression ratio are reported, not gated. Documents
  // from before the sharded ladder (no "shard_points" on either side)
  // pass vacuously.
  const JsonValue* current_shards = current.Find("shard_points");
  const JsonValue* baseline_shards = baseline.Find("shard_points");
  if (current_shards != nullptr || baseline_shards != nullptr) {
    const auto shard_key = [](const JsonValue& p) {
      return "T=" +
             std::to_string(static_cast<int64_t>(p.NumberOr("tables", -1.0)));
    };
    std::map<std::string, const JsonValue*> base_rungs;
    if (baseline_shards != nullptr) {
      for (const JsonValue& p : baseline_shards->items) {
        base_rungs[shard_key(p)] = &p;
      }
    }
    if (current_shards != nullptr) {
      for (const JsonValue& p : current_shards->items) {
        const std::string key = shard_key(p);
        const auto it = base_rungs.find(key);
        if (it == base_rungs.end()) {
          fail("shard rung " + key + " missing from baseline");
          continue;
        }
        const JsonValue& base = *it->second;
        base_rungs.erase(it);
        const auto shard_exact = [&](const char* field) {
          const JsonValue* cg = p.Find("shard");
          const JsonValue* bg = base.Find("shard");
          const double cv = cg != nullptr ? cg->NumberOr(field, -1.0) : -1.0;
          const double bv = bg != nullptr ? bg->NumberOr(field, -1.0) : -1.0;
          std::snprintf(buf, sizeof buf, "%s shard.%s: %.0f (baseline %.0f)",
                        key.c_str(), field, cv, bv);
          if (cv == bv) {
            pass(buf);
          } else {
            fail(buf);
          }
        };
        shard_exact("shards");
        shard_exact("arbiter_rounds");
        shard_exact("steps");
        shard_exact("whatif_calls");
        shard_exact("queries_full");
        shard_exact("queries_compressed");
      }
    }
    for (const auto& [key, rung] : base_rungs) {
      fail("shard rung " + key + " missing from current run");
    }
  }

  // Memory gate: process peak RSS may grow at most the configured share.
  const double current_rss = current.NumberOr("peak_rss_kb", 0.0);
  const double baseline_rss = baseline.NumberOr("peak_rss_kb", 0.0);
  const double ceiling = baseline_rss * (1.0 + options.max_peak_rss_growth);
  std::snprintf(buf, sizeof buf,
                "peak_rss_kb: %.0f (baseline %.0f, ceiling %.0f)",
                current_rss, baseline_rss, ceiling);
  if (baseline_rss <= 0.0 || current_rss <= ceiling) {
    pass(buf);
  } else {
    fail(buf);
  }

  result.text = std::string(result.ok ? "trajectory check passed\n"
                                      : "trajectory check FAILED\n") +
                result.text;
  return result;
}

}  // namespace idxsel::report
