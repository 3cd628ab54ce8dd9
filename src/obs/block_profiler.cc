#include "src/obs/block_profiler.h"

namespace neuroc {

PcProfile BlockProfiler::Collect() const {
  PcProfile out;
  for (const auto& [addr, stat] : cpu_.CollectBlockProfile()) {
    out.Add(addr, stat.op, stat.count, stat.cycles);
  }
  return out;
}

}  // namespace neuroc
