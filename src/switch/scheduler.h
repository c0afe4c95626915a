#pragma once
// The control-queue weight of DCP-Switch's egress DWRR (net/port.h).
//
// DCP-Switch uses weighted round-robin between the control queue (trimmed
// header-only packets) and the data queue, with the control queue weighted
// so that its drain rate covers the worst-case trim rate (paper §4.2):
//
//     w = (N - 1) / (r - N + 1)
//
// where N is the incast scale the switch must absorb and 1:r is the
// HO-to-data packet size ratio.  The scheduled byte-volume ratio between
// control and data queues is then w : 1.

namespace dcp {

/// Computes the paper's WRR weight w = (N-1)/(r-N+1) for the control queue,
/// where r is the data-to-HO size ratio.  When r <= N-1 the formula has no
/// positive solution (the paper's "r < N-1" regime); we then fall back to
/// `fallback`, which §6.3 shows handles even 255-to-1 incast in practice.
double wrr_control_weight(int incast_scale_n, double size_ratio_r, double fallback = 1.0);

}  // namespace dcp
