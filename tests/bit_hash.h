#ifndef GREEN_TESTS_BIT_HASH_H_
#define GREEN_TESTS_BIT_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace green {

/// FNV-1a over the bit patterns of the values added, for tests that pin
/// every bit a computation produced to one 64-bit digest.
class BitHash {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  /// A signed integer, sign-extended to 64 bits.
  void AddInt(int64_t v) { Add(static_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  uint64_t h_ = 14695981039346656037ull;
};

}  // namespace green

#endif  // GREEN_TESTS_BIT_HASH_H_
