#include "transport/frame.hpp"

#include <iterator>

namespace scsq::transport {

std::optional<Frame> FrameCutter::cut_partial() {
  SCSQ_CHECK(!finished_) << "cut_partial after finish";
  SCSQ_CHECK(!has_full()) << "cut_partial with full buffers uncut";
  if (pending_bytes() == 0) return std::nullopt;
  return cut(pending_bytes());
}

Frame FrameCutter::finish() {
  SCSQ_CHECK(!finished_) << "double finish";
  SCSQ_CHECK(!has_full()) << "finish with full buffers uncut";
  finished_ = true;
  Frame f = cut(pushed_bytes_ - emitted_bytes_);
  f.eos = true;
  SCSQ_CHECK(head_ == pending_.size()) << "objects left behind at stream end";
  return f;
}

Frame FrameCutter::cut(std::uint64_t frame_bytes) {
  Frame f = pool_ ? pool_->acquire() : Frame{};
  f.bytes = frame_bytes;
  f.seq = next_seq_++;
  emitted_bytes_ += frame_bytes;
  // All objects whose final byte now falls inside an emitted frame move
  // to this frame in one bulk splice.
  std::size_t split = head_;
  while (split < pending_end_.size() && pending_end_[split] <= emitted_bytes_) ++split;
  if (split > head_) {
    f.objects.insert(f.objects.end(),
                     std::make_move_iterator(pending_.begin() + static_cast<std::ptrdiff_t>(head_)),
                     std::make_move_iterator(pending_.begin() + static_cast<std::ptrdiff_t>(split)));
    head_ = split;
    if (head_ == pending_.size()) {
      pending_.clear();
      pending_end_.clear();
      head_ = 0;
    }
  }
  return f;
}

}  // namespace scsq::transport
