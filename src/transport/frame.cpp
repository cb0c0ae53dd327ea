#include "transport/frame.hpp"

#include <iterator>

namespace scsq::transport {

Frame* FrameCutter::cut_partial() {
  SCSQ_CHECK(!finished_) << "cut_partial after finish";
  SCSQ_CHECK(!has_full()) << "cut_partial with full buffers uncut";
  if (pending_bytes() == 0) return nullptr;
  return cut(pending_bytes());
}

Frame* FrameCutter::finish() {
  SCSQ_CHECK(!finished_) << "double finish";
  SCSQ_CHECK(!has_full()) << "finish with full buffers uncut";
  finished_ = true;
  Frame* f = cut(pushed_bytes_ - emitted_bytes_);
  f->eos = true;
  SCSQ_CHECK(pending_.empty()) << "objects left behind at stream end";
  return f;
}

Frame* FrameCutter::cut(std::uint64_t frame_bytes) {
  Frame* f = pool_->acquire();
  f->bytes = frame_bytes;
  f->seq = next_seq_++;
  emitted_bytes_ += frame_bytes;
  // All objects whose final byte now falls inside an emitted frame move
  // to this frame in one bulk splice and leave the pending arrays, so
  // those never hold more than the objects of the uncut bytes — even
  // when an object straddles every cut and the arrays never drain.
  std::size_t split = 0;
  while (split < pending_end_.size() && pending_end_[split] <= emitted_bytes_) ++split;
  if (split > 0) {
    const auto done = pending_.begin() + static_cast<std::ptrdiff_t>(split);
    f->objects.insert(f->objects.end(), std::make_move_iterator(pending_.begin()),
                      std::make_move_iterator(done));
    pending_.erase(pending_.begin(), done);
    pending_end_.erase(pending_end_.begin(),
                       pending_end_.begin() + static_cast<std::ptrdiff_t>(split));
  }
  return f;
}

}  // namespace scsq::transport
