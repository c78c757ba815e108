// Reconfiguration costs R(I*, I-bar*) — eq. (3).
//
// Changing an existing selection I-bar* into a new selection I* requires
// creating the indexes in I* \ I-bar* and dropping the ones in I-bar* \ I*.
// The paper leaves R "arbitrarily defined"; we provide the natural
// traffic-based model: building an index costs a multiple of its size
// (read base columns + sort + write), dropping is a small constant.

#ifndef IDXSEL_COSTMODEL_RECONFIGURATION_H_
#define IDXSEL_COSTMODEL_RECONFIGURATION_H_

#include "costmodel/index.h"
#include "costmodel/what_if.h"

namespace idxsel::costmodel {

/// Parameters of the reconfiguration-cost model.
struct ReconfigurationParams {
  /// Build cost per byte of the created index (read + sort + write).
  double create_factor = 3.0;
  /// Flat cost per dropped index (catalog update, memory release).
  double drop_cost = 0.0;
};

/// R(new_config, old_config): cost of transforming `old_config` into
/// `new_config`. Indexes present in both selections are free.
class ReconfigurationModel {
 public:
  ReconfigurationModel(WhatIfEngine* engine, ReconfigurationParams params = {})
      : engine_(engine), params_(params) {
    IDXSEL_CHECK(engine != nullptr);
  }

  /// Flat cost of dropping one index of the old selection.
  double drop_cost() const { return params_.drop_cost; }

  /// Cost of creating index k from scratch.
  double CreateCost(const Index& k) const {
    return params_.create_factor * engine_->IndexMemory(k);
  }

  /// R(I*, I-bar*).
  double Cost(const IndexConfig& new_config,
              const IndexConfig& old_config) const {
    double cost = 0.0;
    for (const Index& k : new_config.indexes()) {
      if (!old_config.Contains(k)) cost += CreateCost(k);
    }
    for (const Index& k : old_config.indexes()) {
      if (!new_config.Contains(k)) cost += params_.drop_cost;
    }
    return cost;
  }

 private:
  WhatIfEngine* engine_;
  ReconfigurationParams params_;
};

}  // namespace idxsel::costmodel

#endif  // IDXSEL_COSTMODEL_RECONFIGURATION_H_
