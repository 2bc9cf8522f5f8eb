/**
 * @file
 * CRC-16/CCITT-FALSE, the per-packet checksum the SHRIMP network
 * interface appends to detect network errors (Section 3.1).
 *
 * Computed slice-by-8: eight 256-entry tables, built at compile time,
 * fold eight message bytes into the register per step, and the first
 * table alone finishes the tail one byte at a time. The value is
 * bit-for-bit the classic MSB-first bitwise CRC's.
 */

#ifndef SHRIMP_NET_CRC_HH
#define SHRIMP_NET_CRC_HH

#include <cstddef>
#include <cstdint>

namespace shrimp
{

namespace detail
{

/**
 * Slice-by-8 tables for poly 0x1021: t[k][b] is the register after
 * feeding byte b and then k zero bytes into a zero register.
 */
struct Crc16Tables
{
    std::uint16_t t[8][256] = {};

    constexpr Crc16Tables()
    {
        for (unsigned b = 0; b < 256; ++b) {
            auto crc = static_cast<std::uint16_t>(b << 8);
            for (int bit = 0; bit < 8; ++bit) {
                crc = static_cast<std::uint16_t>(
                    (crc & 0x8000) ? (crc << 1) ^ 0x1021 : crc << 1);
            }
            t[0][b] = crc;
        }
        for (int k = 1; k < 8; ++k) {
            for (unsigned b = 0; b < 256; ++b) {
                std::uint16_t prev = t[k - 1][b];
                t[k][b] = static_cast<std::uint16_t>(
                    (prev << 8) ^ t[0][prev >> 8]);
            }
        }
    }
};

inline constexpr Crc16Tables crc16Tables{};

} // namespace detail

/** Incremental CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF). */
class Crc16
{
  public:
    /** Feed @p len bytes. */
    void
    update(const void *data, std::size_t len)
    {
        const auto &t = detail::crc16Tables.t;
        const auto *p = static_cast<const std::uint8_t *>(data);
        unsigned crc = _crc;
        // The 16-bit register lines up with the block's first two
        // bytes; every byte's table says what it leaves in the
        // register once the rest of the block has been shifted in.
        for (; len >= 8; len -= 8, p += 8) {
            crc = t[7][(crc >> 8) ^ p[0]] ^ t[6][(crc & 0xFF) ^ p[1]] ^
                  t[5][p[2]] ^ t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^
                  t[1][p[6]] ^ t[0][p[7]];
        }
        for (; len > 0; --len, ++p)
            crc = ((crc << 8) & 0xFFFF) ^ t[0][(crc >> 8) ^ *p];
        _crc = static_cast<std::uint16_t>(crc);
    }

    /** Feed one little-endian integer of @p size bytes. */
    void
    updateInt(std::uint64_t v, unsigned size)
    {
        update(&v, size);
    }

    std::uint16_t value() const { return _crc; }

  private:
    std::uint16_t _crc = 0xFFFF;
};

/** One-shot convenience. */
inline std::uint16_t
crc16(const void *data, std::size_t len)
{
    Crc16 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace shrimp

#endif // SHRIMP_NET_CRC_HH
