#include "core/dcp_transport.h"

namespace dcp {

std::uint32_t dcp_data_header_bytes(RdmaOp op) {
  std::uint32_t hdr = HeaderSizes::kDcpHeaderOnly;  // 57: MAC+IP+UDP+BTH+MSN
  switch (op) {
    case RdmaOp::kWrite:
      hdr += HeaderSizes::kReth;  // in every packet (order tolerance)
      break;
    case RdmaOp::kWriteWithImm:
      hdr += HeaderSizes::kReth + HeaderSizes::kSsn;
      break;
    case RdmaOp::kSend:
      hdr += HeaderSizes::kSsn;
      break;
  }
  return hdr;
}

}  // namespace dcp
