#include "candidates/candidates.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/float_cmp.h"

namespace idxsel::candidates {
namespace {

/// Orders a combination's attributes ascending by selectivity (most
/// selective first) — the representative permutation used for IC_max and
/// the H*-M sets.
Index RepresentativeOrder(const Workload& workload,
                          std::vector<AttributeId> combo) {
  std::sort(combo.begin(), combo.end(), [&](AttributeId x, AttributeId y) {
    const double sx = workload.attribute(x).selectivity();
    const double sy = workload.attribute(y).selectivity();
    if (sx != sy) return sx < sy;
    return x < y;
  });
  return Index(std::move(combo));
}

/// Enumerates all attribute combinations (as sorted id vectors) of sizes
/// 1..max_width that co-occur in at least one query, with their
/// frequency-weighted occurrence counts sum_{j: combo subset of q_j} b_j.
/// The m-subset enumeration is the combinatorial hot spot of candidate
/// generation, so it polls per emitted subset; expiry truncates the map.
std::unordered_map<Index, double, costmodel::IndexHash>
CollectCooccurringCombos(const Workload& workload, uint32_t max_width,
                         rt::DeadlinePoller& poller) {
  std::unordered_map<Index, double, costmodel::IndexHash> combos;
  // Pre-size from the saturated emission count (sum of binomials per
  // query); duplicates across queries make it an upper bound, and the cap
  // keeps a pathological workload from reserving an absurd table.
  constexpr size_t kReserveCap = size_t{1} << 20;
  size_t emissions = 0;
  for (QueryId j = 0;
       j < workload.num_queries() && emissions < kReserveCap; ++j) {
    const size_t n = workload.query(j).attributes.size();
    const size_t cap = std::min<size_t>(max_width, n);
    size_t binom = 1;
    for (size_t m = 1; m <= cap && emissions < kReserveCap; ++m) {
      binom = binom * (n - m + 1) / m;  // C(n, m), exact stepwise
      emissions += std::min(binom, kReserveCap);
    }
  }
  combos.reserve(std::min(emissions, kReserveCap));
  std::vector<size_t> pick;
  for (QueryId j = 0; j < workload.num_queries(); ++j) {
    if (poller.expired()) break;
    const auto& attrs = workload.query(j).attributes;  // sorted unique
    const double freq = workload.query(j).frequency;
    const size_t width_cap =
        std::min<size_t>(max_width, attrs.size());
    for (size_t m = 1; m <= width_cap && !poller.Expired(); ++m) {
      // Iterate all m-subsets of attrs via combination indices.
      pick.resize(m);
      for (size_t u = 0; u < m; ++u) pick[u] = u;
      while (!poller.Expired()) {
        std::vector<AttributeId> combo(m);
        for (size_t u = 0; u < m; ++u) combo[u] = attrs[pick[u]];
        combos[Index(std::move(combo))] += freq;
        // Advance combination.
        size_t u = m;
        while (u > 0) {
          --u;
          if (pick[u] != u + attrs.size() - m) break;
          if (u == 0) {
            u = m;  // done sentinel
            break;
          }
        }
        if (u == m) break;
        ++pick[u];
        for (size_t v = u + 1; v < m; ++v) pick[v] = pick[v - 1] + 1;
      }
    }
  }
  return combos;
}

double CombinedSelectivity(const Workload& workload, const Index& combo) {
  double s = 1.0;
  for (AttributeId a : combo.attributes()) {
    s *= workload.attribute(a).selectivity();
  }
  return s;
}

}  // namespace

CandidateSet::CandidateSet(std::vector<Index> indexes) {
  for (Index& k : indexes) Add(k);
}

bool CandidateSet::Add(const Index& k) {
  IDXSEL_DCHECK(!k.empty());
  auto [it, inserted] = position_.emplace(k, indexes_.size());
  if (inserted) indexes_.push_back(k);
  return inserted;
}

bool CandidateSet::Contains(const Index& k) const {
  return position_.count(k) != 0;
}

void CandidateSet::Merge(const CandidateSet& other) {
  for (const Index& k : other.indexes()) Add(k);
}

CandidateSet EnumerateAllCandidates(const Workload& workload,
                                    uint32_t max_width,
                                    const rt::Deadline& deadline) {
  rt::DeadlinePoller poller(deadline);
  auto combos = CollectCooccurringCombos(workload, max_width, poller);
  std::vector<Index> result;
  result.reserve(combos.size());
  for (const auto& [combo, freq] : combos) {
    (void)freq;
    result.push_back(RepresentativeOrder(workload, combo.attributes()));
  }
  // Permutation representatives can collide (two sorted combos map to the
  // same ordering only if equal, so they cannot), but keep the canonical
  // dedup + deterministic order regardless.
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return CandidateSet(std::move(result));
}

CandidateSet GenerateCandidates(const Workload& workload,
                                CandidateHeuristic heuristic, size_t total,
                                uint32_t max_width,
                                const rt::Deadline& deadline) {
  IDXSEL_CHECK_GT(max_width, 0u);
  rt::DeadlinePoller poller(deadline);
  auto combos = CollectCooccurringCombos(workload, max_width, poller);

  // Bucket combos by width with their heuristic score (lower = better).
  struct Scored {
    double score;
    Index combo;
  };
  std::vector<std::vector<Scored>> by_width(max_width + 1);
  {
    // Counting pass so each bucket allocates exactly once.
    std::vector<size_t> width_count(max_width + 1, 0);
    for (const auto& [combo, freq] : combos) {
      (void)freq;
      ++width_count[combo.width()];
    }
    for (uint32_t m = 1; m <= max_width; ++m) {
      by_width[m].reserve(width_count[m]);
    }
  }
  for (const auto& [combo, freq] : combos) {
    double score = 0.0;
    switch (heuristic) {
      case CandidateHeuristic::kH1M:
        score = -freq;  // most frequent first
        break;
      case CandidateHeuristic::kH2M:
        score = CombinedSelectivity(workload, combo);
        break;
      case CandidateHeuristic::kH3M:
        score = CombinedSelectivity(workload, combo) / freq;
        break;
    }
    by_width[combo.width()].push_back(Scored{score, combo});
  }

  const size_t per_width = std::max<size_t>(1, total / max_width);
  CandidateSet result;
  for (uint32_t m = 1; m <= max_width; ++m) {
    auto& bucket = by_width[m];
    std::sort(bucket.begin(), bucket.end(),
              [](const Scored& x, const Scored& y) {
                if (x.score != y.score) return x.score < y.score;
                return x.combo < y.combo;
              });
    const size_t take = std::min(per_width, bucket.size());
    for (size_t r = 0; r < take; ++r) {
      result.Add(RepresentativeOrder(workload, bucket[r].combo.attributes()));
    }
  }
  return result;
}

CandidateSet SkylineFilter(const CandidateSet& candidates,
                           WhatIfEngine& engine,
                           const rt::Deadline& deadline) {
  rt::DeadlinePoller poller(deadline);
  const Workload& workload = engine.workload();
  const auto applicability = ComputeApplicability(workload, candidates);

  std::vector<char> keep(candidates.size(), 0);
  // Invert: candidate -> applicable queries is what we have per query.
  struct Entry {
    double memory;
    double cost;
    uint32_t candidate;
  };
  // Candidates are interned once; queries are visited in ascending order,
  // so a per-candidate cursor over its posting list is the dense row slot
  // of every (j, c) pair this sweep prices.
  std::vector<kernel::IndexId> ids;
  ids.reserve(candidates.size());
  for (uint32_t c = 0; c < candidates.size(); ++c) {
    ids.push_back(engine.InternIndex(candidates[c]));
  }
  std::vector<uint32_t> cursor(candidates.size(), 0);
  for (QueryId j = 0; j < workload.num_queries(); ++j) {
    // A half-swept skyline cannot tell "dominated" from "never examined";
    // degrade to the identity filter instead of dropping unjudged
    // candidates (see header).
    if (poller.Expired()) return candidates;
    std::vector<Entry> entries;
    entries.reserve(applicability[j].size());
    for (uint32_t c : applicability[j]) {
      const double memory = engine.IndexMemoryDense(ids[c]);
      entries.push_back(Entry{
          memory, engine.CostWithIndexDense(j, ids[c], cursor[c]++), c});
    }
    // Skyline sweep: ascending memory, keep strictly improving cost.
    std::sort(entries.begin(), entries.end(), [](const Entry& x,
                                                 const Entry& y) {
      if (x.memory != y.memory) return x.memory < y.memory;
      if (!ExactlyEqual(x.cost, y.cost)) return x.cost < y.cost;
      return x.candidate < y.candidate;
    });
    double best_cost = std::numeric_limits<double>::infinity();
    for (const Entry& e : entries) {
      if (e.cost < best_cost) {
        keep[e.candidate] = 1;
        best_cost = e.cost;
      }
    }
  }

  CandidateSet result;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (keep[c]) result.Add(candidates[c]);
  }
  return result;
}

std::vector<std::vector<uint32_t>> ComputeApplicability(
    const Workload& workload, const CandidateSet& candidates) {
  std::vector<std::vector<uint32_t>> applicability(workload.num_queries());
  // Counting pass so each per-query list allocates exactly once.
  std::vector<uint32_t> counts(workload.num_queries(), 0);
  for (uint32_t c = 0; c < candidates.size(); ++c) {
    for (QueryId j : workload.queries_with(candidates[c].leading())) {
      ++counts[j];
    }
  }
  for (QueryId j = 0; j < workload.num_queries(); ++j) {
    applicability[j].reserve(counts[j]);
  }
  for (uint32_t c = 0; c < candidates.size(); ++c) {
    const Index& k = candidates[c];
    for (QueryId j : workload.queries_with(k.leading())) {
      applicability[j].push_back(c);
    }
  }
  return applicability;
}

double MeanApplicableCandidates(
    const std::vector<std::vector<uint32_t>>& applicability) {
  if (applicability.empty()) return 0.0;
  size_t total = 0;
  for (const auto& sets : applicability) total += sets.size();
  return static_cast<double>(total) /
         static_cast<double>(applicability.size());
}

}  // namespace idxsel::candidates
