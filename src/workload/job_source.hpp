// Abstract arrival source: anything that can hand the engine the next
// JobSpec. Two implementations exist — the synthetic WorkloadGenerator
// (Poisson arrivals, DAS size/service draws) and TraceWorkload (replay of
// a recorded SWF log). The engine owns one JobSource and is agnostic to
// which; `next` is pull-based and returns false when the source is
// exhausted (a finite trace), which synthetic sources never are.
#pragma once

#include "workload/workload.hpp"

namespace mcsim {

class JobSource {
 public:
  virtual ~JobSource() = default;

  /// Fill `out` with the next arrival (arrival times non-decreasing).
  /// `out` is a recycled spec: write every field, and reuse its vectors'
  /// capacity rather than assigning fresh ones. Returns false when no jobs
  /// remain; `out` is untouched in that case.
  virtual bool next(JobSpec& out) = 0;
};

}  // namespace mcsim
