#include "cc/cc.h"

#include "cc/dcqcn.h"
#include "cc/timely.h"

namespace dcp {

std::unique_ptr<CongestionControl> make_cc(Simulator& sim, const CcConfig& cfg) {
  switch (cfg.type) {
    case CcConfig::Type::kStaticWindow:
      return std::make_unique<StaticWindowCc>(cfg.line_rate, cfg.window_bytes);
    case CcConfig::Type::kDcqcn:
      return std::make_unique<DcqcnRp>(sim, cfg.line_rate, cfg.window_bytes);
    case CcConfig::Type::kTimely:
      return std::make_unique<TimelyCc>(cfg.line_rate, cfg.window_bytes);
  }
  return nullptr;
}

}  // namespace dcp
