// The benchmark's own inputs and correctness oracle, computed apart from
// the program under test: a seeded generator, a Zipfian key chooser, the
// self-checking value format and the per-key version model. Nothing here
// calls into src/, so no change to the store can alter what is generated
// or what counts as a correct answer.
#ifndef KVBENCH_ORACLE_H_
#define KVBENCH_ORACLE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace kvbench {

// splitmix64: a seeded stream whose output depends only on the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

// YCSB's Zipfian rank generator (Gray et al., "Quickly generating
// billion-record synthetic databases"): rank 0 is the hottest item.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) / (1.0 - zeta2 / zetan);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }
  uint64_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return 1;
    const uint64_t r =
        static_cast<uint64_t>(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  uint64_t n_;
  double zetan_, alpha_, eta_, half_pow_theta_;
};

// Spreads Zipfian ranks over the key space with a seeded bijection
// (rank * stride + offset mod n, stride coprime to n), so the hot keys
// land on many leaf pages instead of one.
class RankMap {
 public:
  RankMap(uint64_t n, uint64_t seed) : n_(n) {
    Rng r(seed ^ 0x5bd1e995ull);
    stride_ = (n / 2 + r.Uniform(n / 4 + 1)) | 1;
    while (Gcd(stride_, n) != 1) stride_ += 2;
    offset_ = r.Uniform(n);
  }
  uint64_t operator()(uint64_t rank) const {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(rank) * stride_ + offset_) % n_);
  }

 private:
  static uint64_t Gcd(uint64_t a, uint64_t b) {
    while (b != 0) { const uint64_t t = a % b; a = b; b = t; }
    return a;
  }
  uint64_t n_, stride_ = 1, offset_ = 0;
};

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slice-by-4.
class Crc32 {
 public:
  static uint32_t Of(const char* p, size_t n) {
    static const Tables t;
    uint32_t c = ~0u;
    while (n >= 4) {
      uint32_t w;
      std::memcpy(&w, p, 4);
      c ^= w;
      c = t.t[3][c & 0xff] ^ t.t[2][(c >> 8) & 0xff] ^ t.t[1][(c >> 16) & 0xff] ^
          t.t[0][c >> 24];
      p += 4;
      n -= 4;
    }
    while (n-- > 0) c = t.t[0][(c ^ static_cast<uint8_t>(*p++)) & 0xff] ^ (c >> 8);
    return ~c;
  }

 private:
  struct Tables {
    uint32_t t[4][256];
    Tables() {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
      }
      for (uint32_t i = 0; i < 256; ++i) {
        for (int s = 1; s < 4; ++s) t[s][i] = t[0][t[s - 1][i] & 0xff] ^ (t[s - 1][i] >> 8);
      }
    }
  };
};

inline constexpr size_t kKeyBytes = 16;

// Key i is "k" followed by 15 decimal digits: fixed width, so byte order
// equals numeric order.
inline void FormatKey(uint64_t idx, char* out) {
  out[0] = 'k';
  for (int i = 15; i >= 1; --i) {
    out[i] = static_cast<char>('0' + idx % 10);
    idx /= 10;
  }
}
inline std::string Key(uint64_t idx) {
  std::string k(kKeyBytes, '\0');
  FormatKey(idx, k.data());
  return k;
}

// Value layout (value_bytes long):
//   [0,4)    version, little-endian u32 (1 = the loaded value)
//   [4,20)   the key it belongs to
//   [20,n-4) filler derived from (seed, key, version): random bytes, or a
//            structured text record that compresses like real rows
//   [n-4,n)  CRC-32 of bytes [0, n-4)
class ValueCodec {
 public:
  ValueCodec(size_t value_bytes, bool structured, uint64_t seed)
      : n_(value_bytes), structured_(structured), seed_(seed) {}

  void Encode(uint64_t idx, uint32_t version, std::string* out) const {
    out->resize(n_);
    char* p = out->data();
    std::memcpy(p, &version, 4);
    FormatKey(idx, p + 4);
    char* f = p + 4 + kKeyBytes;
    const size_t flen = n_ - 8 - kKeyBytes;
    Rng r(seed_ ^ (idx * 0x9e3779b97f4a7c15ull) ^ (uint64_t(version) << 40));
    if (!structured_) {
      for (size_t i = 0; i < flen; i += 8) {
        const uint64_t w = r.Next();
        std::memcpy(f + i, &w, flen - i < 8 ? flen - i : 8);
      }
    } else {
      // A row of named fields with a few varying digits each; repeated
      // field names make the page compressible, as table rows are.
      size_t w = 0;
      while (w < flen) {
        char buf[96];
        const int len = std::snprintf(
            buf, sizeof(buf), "id=%08llu;status=active;region=eu-west-%u;"
            "score=%04u;tags=alpha,beta;",
            static_cast<unsigned long long>(idx), unsigned(r.Uniform(4)),
            unsigned(r.Uniform(10000)));
        const size_t take = std::min(flen - w, static_cast<size_t>(len));
        std::memcpy(f + w, buf, take);
        w += take;
      }
    }
    const uint32_t crc = Crc32::Of(p, n_ - 4);
    std::memcpy(p + n_ - 4, &crc, 4);
  }

  // True when `v` is a well-formed value of key `idx`; its version goes
  // to *version.
  bool Decode(uint64_t idx, std::string_view v, uint32_t* version) const {
    if (v.size() != n_) return false;
    uint32_t crc;
    std::memcpy(&crc, v.data() + n_ - 4, 4);
    if (crc != Crc32::Of(v.data(), n_ - 4)) return false;
    char k[kKeyBytes];
    FormatKey(idx, k);
    if (std::memcmp(v.data() + 4, k, kKeyBytes) != 0) return false;
    std::memcpy(version, v.data(), 4);
    return true;
  }

 private:
  size_t n_;
  bool structured_;
  uint64_t seed_;
};

// Per-key version model. Each key has exactly one writer (a client
// thread, or one wire connection), which raises `sent` before sending a
// write of that version and `acked` once the write has completed. A read
// that starts after acked = a and ends before sent exceeds s must return
// a version in [a, s]; after the run every key must read back as acked.
class Model {
 public:
  explicit Model(uint64_t n)
      : n_(n), sent_(new std::atomic<uint32_t>[n]), acked_(new std::atomic<uint32_t>[n]) {
    Reset();
  }
  void Reset() {
    for (uint64_t i = 0; i < n_; ++i) {
      sent_[i].store(1, std::memory_order_relaxed);
      acked_[i].store(1, std::memory_order_relaxed);
    }
  }
  // Next version of a key owned by the caller, recorded as in flight.
  uint32_t BeginWrite(uint64_t i) {
    const uint32_t v = sent_[i].load(std::memory_order_relaxed) + 1;
    sent_[i].store(v, std::memory_order_release);
    return v;
  }
  void EndWrite(uint64_t i, uint32_t v) { acked_[i].store(v, std::memory_order_release); }
  uint32_t acked(uint64_t i) const { return acked_[i].load(std::memory_order_acquire); }
  uint32_t sent(uint64_t i) const { return sent_[i].load(std::memory_order_acquire); }
  // Self-test hook: pretends a write of `i` completed that never ran.
  void Perturb(uint64_t i) {
    sent_[i].fetch_add(1, std::memory_order_relaxed);
    acked_[i].fetch_add(1, std::memory_order_relaxed);
  }

 private:
  uint64_t n_;
  std::unique_ptr<std::atomic<uint32_t>[]> sent_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
};

}  // namespace kvbench

#endif  // KVBENCH_ORACLE_H_
