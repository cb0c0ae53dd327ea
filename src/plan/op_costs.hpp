// Per-item CPU cost expressions of the SQEP operators in operators.cpp,
// one definition each: the simulated CPU time an operator charges for
// one invocation, one generated or ingested array, one array transform
// or one file scan. operators.cpp holds no inline cost arithmetic, so
// the cost model of the core operators reads in one place.
#pragma once

#include <cmath>
#include <cstdint>

#include "hw/cost_model.hpp"

namespace scsq::plan::op_costs {

/// ConstOp / BagStreamOp / the per-consumed-item charge of CountOp and
/// SumOp: one operator invocation.
inline double invoke(const hw::NodeParams& node) { return node.op_invoke_s; }

/// GenArrayOp: invocation plus generating `bytes` of array content.
inline double gen_array(const hw::NodeParams& node, std::uint64_t bytes) {
  return node.op_invoke_s + static_cast<double>(bytes) * node.gen_per_byte_s;
}

/// ArrayMapOp odd/even over an `n`-element array: one pass.
inline double array_select(const hw::NodeParams& node, std::size_t n) {
  return node.op_invoke_s + static_cast<double>(n) * node.flop_s;
}

/// ArrayMapOp fft over an `n`-element array: ~5 n log2 n flops for a
/// radix-2 FFT (1 flop floor for degenerate inputs).
inline double array_fft(const hw::NodeParams& node, std::size_t n) {
  const double dn = static_cast<double>(n);
  const double flops = n <= 1 ? 1.0 : 5.0 * dn * std::log2(dn);
  return node.op_invoke_s + flops * node.flop_s;
}

/// RadixCombineOp over legs totalling `n` elements.
inline double radix_combine(const hw::NodeParams& node, std::size_t n) {
  return node.op_invoke_s + 6.0 * static_cast<double>(n) * node.flop_s;
}

/// GrepOp: one scan pass over the whole file content (charged once per
/// stream, not per item; matches emit for free afterwards).
inline double grep_scan(const hw::NodeParams& node, std::uint64_t scanned_bytes) {
  return node.op_invoke_s +
         static_cast<double>(scanned_bytes) * node.marshal_per_byte_s;
}

/// ReceiverSourceOp: invocation plus ingesting one signal array of
/// `samples` doubles.
inline double receiver_ingest(const hw::NodeParams& node, std::size_t samples) {
  return node.op_invoke_s +
         8.0 * static_cast<double>(samples) * node.gen_per_byte_s;
}

}  // namespace scsq::plan::op_costs
