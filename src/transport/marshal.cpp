#include "transport/marshal.hpp"

#include <bit>
#include <cstring>

namespace scsq::transport {

using catalog::Kind;
using catalog::Object;

namespace {

// The wire format is little-endian; on LE hosts every word is a raw
// memcpy, on BE hosts the bytes are swizzled through a shift loop. Bulk
// array copies skip empty arrays: an empty vector's data() may be null,
// and memcpy from or to a null pointer is undefined even for 0 bytes.
constexpr bool kLittle = std::endian::native == std::endian::little;

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (kLittle) {
    std::memcpy(p, &v, 8);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  if constexpr (kLittle) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  } else {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }
}

}  // namespace

std::uint64_t MarshalWriter::physical_size(const Object& obj) {
  constexpr std::uint64_t kTag = 1;
  switch (obj.kind()) {
    case Kind::kNull: return kTag;
    case Kind::kInt: return kTag + 8;
    case Kind::kReal: return kTag + 8;
    case Kind::kBool: return kTag + 1;
    case Kind::kStr: return kTag + 8 + obj.as_str().size();
    case Kind::kBag: {
      std::uint64_t total = kTag + 8;
      for (const auto& o : obj.as_bag()) total += physical_size(o);
      return total;
    }
    case Kind::kDArray:
      return kTag + 8 + 8 * static_cast<std::uint64_t>(obj.as_darray().size());
    case Kind::kCArray:
      return kTag + 8 + 16 * static_cast<std::uint64_t>(obj.as_carray().size());
    case Kind::kSynth: return kTag + 16;  // descriptor only; payload is nominal
    case Kind::kSp: return kTag + 8 + 8 + obj.as_sp().cluster.size();
  }
  SCSQ_CHECK(false) << "unreachable";
  return 0;
}

void MarshalWriter::write(const Object& obj) {
  const std::size_t base = out_->size();
  out_->resize(base + static_cast<std::size_t>(physical_size(obj)));
  p_ = out_->data() + base;
  emit(obj);
}

void MarshalWriter::emit(const Object& obj) {
  // write() sized the buffer exactly; p_ advances through pre-committed
  // bytes with no per-word size checks.
  *p_++ = static_cast<std::uint8_t>(obj.kind());
  switch (obj.kind()) {
    case Kind::kNull:
      break;
    case Kind::kInt:
      store_u64(p_, static_cast<std::uint64_t>(obj.as_int()));
      p_ += 8;
      break;
    case Kind::kReal: {
      std::uint64_t bits;
      double v = obj.as_real();
      std::memcpy(&bits, &v, 8);
      store_u64(p_, bits);
      p_ += 8;
      break;
    }
    case Kind::kBool:
      *p_++ = obj.as_bool() ? 1 : 0;
      break;
    case Kind::kStr: {
      const auto& s = obj.as_str();
      store_u64(p_, s.size());
      std::memcpy(p_ + 8, s.data(), s.size());
      p_ += 8 + s.size();
      break;
    }
    case Kind::kBag: {
      const auto& bag = obj.as_bag();
      store_u64(p_, bag.size());
      p_ += 8;
      for (const auto& o : bag) emit(o);
      break;
    }
    case Kind::kDArray: {
      const auto& a = obj.as_darray();
      store_u64(p_, a.size());
      if constexpr (kLittle) {
        if (!a.empty()) std::memcpy(p_ + 8, a.data(), 8 * a.size());
      } else {
        for (std::size_t i = 0; i < a.size(); ++i) {
          std::uint64_t bits;
          std::memcpy(&bits, &a[i], 8);
          store_u64(p_ + 8 + 8 * i, bits);
        }
      }
      p_ += 8 + 8 * a.size();
      break;
    }
    case Kind::kCArray: {
      // std::complex<double> is array-oriented: {real, imag} contiguous —
      // exactly the wire layout, so the whole array is one bulk copy.
      const auto& a = obj.as_carray();
      store_u64(p_, a.size());
      if constexpr (kLittle) {
        if (!a.empty()) std::memcpy(p_ + 8, a.data(), 16 * a.size());
      } else {
        for (std::size_t i = 0; i < a.size(); ++i) {
          std::uint64_t re, im;
          double rev = a[i].real(), imv = a[i].imag();
          std::memcpy(&re, &rev, 8);
          std::memcpy(&im, &imv, 8);
          store_u64(p_ + 8 + 16 * i, re);
          store_u64(p_ + 8 + 16 * i + 8, im);
        }
      }
      p_ += 8 + 16 * a.size();
      break;
    }
    case Kind::kSynth: {
      const auto& sa = obj.as_synth();
      store_u64(p_, sa.bytes);
      store_u64(p_ + 8, sa.seq);
      p_ += 16;
      break;
    }
    case Kind::kSp: {
      const auto sp = obj.as_sp();
      store_u64(p_, sp.id);
      store_u64(p_ + 8, sp.cluster.size());
      std::memcpy(p_ + 16, sp.cluster.data(), sp.cluster.size());
      p_ += 16 + sp.cluster.size();
      break;
    }
  }
}

std::uint8_t MarshalReader::get_u8() {
  SCSQ_CHECK(cur_ < end_) << "truncated marshal data";
  return *cur_++;
}

const std::uint8_t* MarshalReader::take(std::size_t n) {
  SCSQ_CHECK(n <= static_cast<std::size_t>(end_ - cur_)) << "truncated marshal data";
  const std::uint8_t* p = cur_;
  cur_ += n;
  return p;
}

std::uint64_t MarshalReader::get_u64() { return load_u64(take(8)); }

double MarshalReader::get_f64() {
  std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Object MarshalReader::read() {
  const auto kind = static_cast<Kind>(get_u8());
  switch (kind) {
    case Kind::kNull:
      return Object{};
    case Kind::kInt:
      return Object{static_cast<std::int64_t>(get_u64())};
    case Kind::kReal:
      return Object{get_f64()};
    case Kind::kBool:
      return Object{get_u8() != 0};
    case Kind::kStr: {
      auto len = get_u64();
      const auto* p = take(static_cast<std::size_t>(len));
      return Object{std::string(reinterpret_cast<const char*>(p),
                                static_cast<std::size_t>(len))};
    }
    case Kind::kBag: {
      auto count = get_u64();
      catalog::Bag bag;
      bag.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) bag.push_back(read());
      return Object{std::move(bag)};
    }
    case Kind::kDArray: {
      auto count = get_u64();
      const auto* p = take(8 * static_cast<std::size_t>(count));
      std::vector<double> a(static_cast<std::size_t>(count));
      if constexpr (kLittle) {
        if (!a.empty()) std::memcpy(a.data(), p, 8 * a.size());
      } else {
        for (std::size_t i = 0; i < a.size(); ++i) {
          std::uint64_t bits = load_u64(p + 8 * i);
          std::memcpy(&a[i], &bits, 8);
        }
      }
      return Object{std::move(a)};
    }
    case Kind::kCArray: {
      auto count = get_u64();
      const auto* p = take(16 * static_cast<std::size_t>(count));
      std::vector<std::complex<double>> a(static_cast<std::size_t>(count));
      if constexpr (kLittle) {
        if (!a.empty()) std::memcpy(a.data(), p, 16 * a.size());
      } else {
        for (std::size_t i = 0; i < a.size(); ++i) {
          std::uint64_t re = load_u64(p + 16 * i);
          std::uint64_t im = load_u64(p + 16 * i + 8);
          double rev, imv;
          std::memcpy(&rev, &re, 8);
          std::memcpy(&imv, &im, 8);
          a[i] = {rev, imv};
        }
      }
      return Object{std::move(a)};
    }
    case Kind::kSynth: {
      catalog::SynthArray sa;
      sa.bytes = get_u64();
      sa.seq = get_u64();
      return Object{sa};
    }
    case Kind::kSp: {
      catalog::SpHandle sp;
      sp.id = get_u64();
      auto len = get_u64();
      const auto* p = take(static_cast<std::size_t>(len));
      sp.cluster.assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(len));
      return Object{std::move(sp)};
    }
  }
  SCSQ_CHECK(false) << "unknown kind tag " << static_cast<int>(kind);
  return Object{};
}

void MarshalReader::read_into(Object& out) {
  const auto kind = static_cast<Kind>(get_u8());
  switch (kind) {
    case Kind::kStr: {
      auto len = get_u64();
      const auto* p = take(static_cast<std::size_t>(len));
      if (out.kind() == Kind::kStr) {
        out.as_str().assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(len));
      } else {
        out = Object{std::string(reinterpret_cast<const char*>(p),
                                 static_cast<std::size_t>(len))};
      }
      return;
    }
    case Kind::kBag: {
      auto count = get_u64();
      if (out.kind() != Kind::kBag) out = Object{catalog::Bag{}};
      auto& bag = out.as_bag();
      if (bag.size() > count) bag.resize(static_cast<std::size_t>(count));
      bag.reserve(static_cast<std::size_t>(count));
      std::size_t i = 0;
      for (; i < bag.size(); ++i) read_into(bag[i]);
      for (; i < count; ++i) {
        bag.emplace_back();
        read_into(bag.back());
      }
      return;
    }
    case Kind::kDArray: {
      auto count = get_u64();
      const auto* p = take(8 * static_cast<std::size_t>(count));
      if (out.kind() != Kind::kDArray) out = Object{std::vector<double>{}};
      auto& a = out.as_darray();
      a.resize(static_cast<std::size_t>(count));
      if constexpr (kLittle) {
        if (!a.empty()) std::memcpy(a.data(), p, 8 * a.size());
      } else {
        for (std::size_t j = 0; j < a.size(); ++j) {
          std::uint64_t bits = load_u64(p + 8 * j);
          std::memcpy(&a[j], &bits, 8);
        }
      }
      return;
    }
    case Kind::kCArray: {
      auto count = get_u64();
      const auto* p = take(16 * static_cast<std::size_t>(count));
      if (out.kind() != Kind::kCArray) out = Object{std::vector<std::complex<double>>{}};
      auto& a = out.as_carray();
      a.resize(static_cast<std::size_t>(count));
      if constexpr (kLittle) {
        if (!a.empty()) std::memcpy(a.data(), p, 16 * a.size());
      } else {
        for (std::size_t j = 0; j < a.size(); ++j) {
          std::uint64_t re = load_u64(p + 16 * j);
          std::uint64_t im = load_u64(p + 16 * j + 8);
          double rev, imv;
          std::memcpy(&rev, &re, 8);
          std::memcpy(&imv, &im, 8);
          a[j] = {rev, imv};
        }
      }
      return;
    }
    case Kind::kNull:
      out = Object{};
      return;
    case Kind::kInt:
      out = static_cast<std::int64_t>(get_u64());
      return;
    case Kind::kReal:
      out = get_f64();
      return;
    case Kind::kBool:
      out = (get_u8() != 0);
      return;
    case Kind::kSynth: {
      catalog::SynthArray sa;
      sa.bytes = get_u64();
      sa.seq = get_u64();
      out = sa;
      return;
    }
    default:
      // Sp carries no reusable storage worth special-casing (cluster
      // names are SSO-short on every hot path) — rewind the tag and
      // decode fresh through read().
      --cur_;
      out = read();
      return;
  }
}

void marshal(const Object& obj, std::vector<std::uint8_t>& out) {
  MarshalWriter(out).write(obj);
}

Object unmarshal(std::span<const std::uint8_t> data, std::size_t& offset) {
  MarshalReader r(data, offset);
  Object obj = r.read();
  offset = r.offset();
  return obj;
}

std::vector<std::uint8_t> marshal_all(const std::vector<Object>& objs) {
  std::vector<std::uint8_t> out;
  std::uint64_t total = 0;
  for (const auto& o : objs) total += MarshalWriter::physical_size(o);
  out.reserve(static_cast<std::size_t>(total));
  MarshalWriter w(out);
  for (const auto& o : objs) w.write(o);
  return out;
}

std::vector<Object> unmarshal_all(std::span<const std::uint8_t> data) {
  std::vector<Object> out;
  MarshalReader r(data);
  while (!r.done()) out.push_back(r.read());
  return out;
}

}  // namespace scsq::transport
